package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// digests.json pins, for the default seed, the digest of every sim-phase
// point's simulated result per workload and of the service phase's cold
// figures. A run on the default seed fails on any difference.
//
//go:embed digests.json
var pinsJSON []byte

type pinSet struct {
	Points  map[string][]string `json:"points"`
	Figures string              `json:"figures"`
}

func loadPins() (*pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if p.Points == nil {
		p.Points = map[string][]string{}
	}
	return &p, nil
}

// savePins records this run's digests in perfbench/digests.json under
// the working directory (the repository root).
func (b *bench) savePins(p *pinSet) error {
	p.Points[b.name] = b.digests
	p.Figures = b.figDigest
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "digests.json"), append(out, '\n'), 0o644)
}
