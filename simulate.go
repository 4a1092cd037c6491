package querycentric

import (
	"querycentric/internal/hybrid"
	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/synopsis"
)

// Overlay graph substrate.
type (
	Graph          = overlay.Graph
	GnutellaConfig = overlay.GnutellaConfig
)

// Overlay constructors.
var (
	NewGnutellaOverlay     = overlay.NewGnutella
	NewErdosRenyiOverlay   = overlay.NewErdosRenyi
	DefaultGnutellaOverlay = overlay.DefaultGnutellaConfig
)

// Replica placement and unstructured search.
type (
	Placement    = search.Placement
	SearchEngine = search.Engine
)

// Placement constructors: the uniform model prior evaluations assumed, and
// the power-law placement the paper measured.
var (
	UniformPlacement = search.UniformPlacement
	ZipfPlacement    = search.ZipfPlacement
	NewSearchEngine  = search.NewEngine
)

// Hybrid search (Loo et al.-style flood-then-DHT).
type (
	HybridSystem = hybrid.System
	HybridConfig = hybrid.Config
)

// Hybrid constructors.
var (
	NewHybrid           = hybrid.New
	DefaultHybridConfig = hybrid.DefaultConfig
)

// Adaptive synopsis search (the paper's proposed direction).
type (
	SynopsisNetwork = synopsis.Network
	SynopsisConfig  = synopsis.Config
)

// Synopsis constructors.
var (
	NewSynopsisNetwork    = synopsis.New
	DefaultSynopsisConfig = synopsis.DefaultConfig
)

// RNG is the deterministic random source every simulation entry point
// accepts.
type RNG = rng.Source

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }
