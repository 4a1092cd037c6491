package churn

import (
	"math"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := map[string]func(*Config){
		"zero MeanOnline":      func(c *Config) { c.MeanOnline = 0 },
		"negative MeanOnline":  func(c *Config) { c.MeanOnline = -10 },
		"NaN MeanOnline":       func(c *Config) { c.MeanOnline = math.NaN() },
		"Inf MeanOnline":       func(c *Config) { c.MeanOnline = math.Inf(1) },
		"negative MeanOffline": func(c *Config) { c.MeanOffline = -1 },
		"NaN MeanOffline":      func(c *Config) { c.MeanOffline = math.NaN() },
		"zero Duration":        func(c *Config) { c.Duration = 0 },
		"negative Duration":    func(c *Config) { c.Duration = -600 },
		"zero SampleEvery":     func(c *Config) { c.SampleEvery = 0 },
		"negative SampleEvery": func(c *Config) { c.SampleEvery = -5 },
		"zero TTL":             func(c *Config) { c.TTL = 0 },
		"zero queries":         func(c *Config) { c.QueriesPerSample = 0 },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig(1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestOnlineMask(t *testing.T) {
	a, err := OnlineMask(9, 5000, 3000, 1200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OnlineMask(9, 5000, 3000, 1200)
	if err != nil {
		t.Fatal(err)
	}
	up := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("OnlineMask is not deterministic")
		}
		if a[i] {
			up++
		}
	}
	want := 3000.0 / 4200.0
	if got := float64(up) / float64(len(a)); math.Abs(got-want) > 0.03 {
		t.Errorf("online fraction %v, want ~%v (stationary)", got, want)
	}
	if _, err := OnlineMask(9, -1, 3000, 1200); err == nil {
		t.Error("negative peer count accepted")
	}
	if _, err := OnlineMask(9, 10, 0, 1200); err == nil {
		t.Error("zero MeanOnline accepted")
	}
	if _, err := OnlineMask(9, 10, 3000, -1); err == nil {
		t.Error("negative MeanOffline accepted")
	}
	// All-online degenerate case: zero offline mean.
	all, err := OnlineMask(9, 50, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range all {
		if !up {
			t.Fatal("zero MeanOffline should leave every peer online")
		}
	}
}
