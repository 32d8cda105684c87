package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specPath is the benchmark's definition, read from the repository root.
const specPath = "BENCHMARK.json"

// metricDef names one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// spec is the part of BENCHMARK.json the program reads: the metrics an
// untraced run (end_to_end) and a traced run (per_layer) print.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads the metric lists from BENCHMARK.json.
func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: end_to_end and per_layer must list metrics", path)
	}
	return &s, nil
}
