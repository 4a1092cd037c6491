package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// ManifestSchemaVersion is bumped whenever the manifest layout changes
// incompatibly, so downstream tooling can reject files it cannot parse.
const ManifestSchemaVersion = 1

// PhaseTiming is one wall-clock phase duration. Timings are for humans
// reading the manifest; they are volatile and never fingerprinted.
type PhaseTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Manifest is the versioned run record a command writes next to its
// artifacts (out/RUN_*.json): what ran, at what scale and seed, how long
// each phase took, and every metric the run accumulated.
//
// Workers and Phases are declared volatile: they legitimately differ
// between two otherwise identical runs (a workers=8 run IS a different
// invocation than workers=1, and wall-clock never repeats). Everything
// else must be a pure function of (command, scale, seed), which is what
// Fingerprint pins: the determinism gate compares fingerprints across
// worker counts, and a fingerprint mismatch means the metrics plane leaked
// schedule dependence into a snapshot.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Command       string `json:"command"`
	Mode          string `json:"mode,omitempty"`
	Scale         string `json:"scale,omitempty"`
	Seed          uint64 `json:"seed"`

	Workers int           `json:"workers"` // volatile
	Phases  []PhaseTiming `json:"phases"`  // volatile

	Metrics     Snapshot     `json:"metrics"`
	FloodTraces []FloodTrace `json:"flood_traces,omitempty"`

	// Windows carries the windowed time series a long-horizon event-engine
	// run streamed (success rate, message cost, partitions per window).
	// The series are deterministic simulated-time data, so they are part
	// of the fingerprint; runs that record none omit the field, keeping
	// pre-existing fingerprints stable.
	Windows []WindowSeries `json:"windows,omitempty"`

	// Fingerprint is the SHA-256 of the manifest's deterministic content,
	// set by Finalize.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// fingerprintView is the deterministic subset of a manifest: the volatile
// fields (Workers, Phases, Fingerprint itself) are excluded.
type fingerprintView struct {
	SchemaVersion int            `json:"schema_version"`
	Command       string         `json:"command"`
	Mode          string         `json:"mode,omitempty"`
	Scale         string         `json:"scale,omitempty"`
	Seed          uint64         `json:"seed"`
	Metrics       Snapshot       `json:"metrics"`
	FloodTraces   []FloodTrace   `json:"flood_traces,omitempty"`
	Windows       []WindowSeries `json:"windows,omitempty"`
}

// ComputeFingerprint returns the SHA-256 hex digest of the manifest's
// deterministic content. Two runs of the same (command, mode, scale, seed)
// must produce equal fingerprints at any worker count.
func (m *Manifest) ComputeFingerprint() (string, error) {
	b, err := json.Marshal(fingerprintView{
		SchemaVersion: m.SchemaVersion,
		Command:       m.Command,
		Mode:          m.Mode,
		Scale:         m.Scale,
		Seed:          m.Seed,
		Metrics:       m.Metrics,
		FloodTraces:   m.FloodTraces,
		Windows:       m.Windows,
	})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Finalize stamps the schema version and fingerprint.
func (m *Manifest) Finalize() error {
	m.SchemaVersion = ManifestSchemaVersion
	fp, err := m.ComputeFingerprint()
	if err != nil {
		return err
	}
	m.Fingerprint = fp
	return nil
}

// Encode writes the manifest to w as indented JSON with a trailing newline.
func (m *Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// RunFileName is the canonical manifest file name for one invocation:
// RUN_<command>[_<mode>]_<scale>_seed<seed>.json. Deterministic, so rerunning
// the same invocation overwrites its own manifest instead of accumulating.
func RunFileName(command, mode, scale string, seed uint64) string {
	name := "RUN_" + command
	if mode != "" {
		name += "_" + mode
	}
	if scale != "" {
		name += "_" + scale
	}
	return fmt.Sprintf("%s_seed%d.json", name, seed)
}
