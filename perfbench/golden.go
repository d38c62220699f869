package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// golden.json records, per deterministic workload and seed, Hare's
// full-precision WJCT and plan digest, and on sweep-paper every
// scheduler's row WJCT, as the program produced them when the
// benchmark was defined. Regenerate it only when a change is meant to
// alter plans: go run . --record-golden golden.json
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	WJCT   float64 `json:"wjct"`
	Digest string  `json:"digest"` // hex: JSON numbers cannot hold every uint64
	// Rows holds sweep-paper's WJCT per (row, scheduler), row-major.
	Rows []float64 `json:"rows,omitempty"`
}

// goldenSeeds is how many seeds, from 0, golden.json records.
const goldenSeeds = 16

// goldenTable maps workload → seed → entry.
type goldenTable map[string]map[string]goldenEntry

func loadGolden() (goldenTable, error) {
	var g goldenTable
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func (g goldenTable) lookup(workload string, seed int64) (goldenEntry, bool) {
	e, ok := g[workload][strconv.FormatInt(seed, 10)]
	return e, ok
}

// check compares a result with the recorded entry, if there is one.
func (g goldenTable) check(workload string, seed int64, r result) error {
	e, ok := g.lookup(workload, seed)
	if !ok {
		return nil
	}
	//lint:allow floateq the golden WJCT is recorded at full precision
	if r.wjct != e.WJCT || fmt.Sprintf("%016x", r.digest) != e.Digest {
		return fmt.Errorf("seed %d: WJCT %.17g digest %016x, golden %.17g %s", seed, r.wjct, r.digest, e.WJCT, e.Digest)
	}
	if len(r.rows) != len(e.Rows) {
		return fmt.Errorf("seed %d: %d row values, golden %d", seed, len(r.rows), len(e.Rows))
	}
	for i, v := range r.rows {
		//lint:allow floateq the golden rows are recorded at full precision
		if v != e.Rows[i] {
			return fmt.Errorf("seed %d: row value %d is %.17g, golden %.17g", seed, i, v, e.Rows[i])
		}
	}
	return nil
}

// recordGolden runs one untraced iteration of every deterministic
// workload on seeds [0, goldenSeeds) and writes the table to path.
func recordGolden(path string) error {
	g := goldenTable{}
	for _, w := range workloads {
		if !w.deterministic {
			continue
		}
		g[w.name] = map[string]goldenEntry{}
		for seed := int64(0); seed < goldenSeeds; seed++ {
			it, err := w.setup(seed, false)
			if err != nil {
				return err
			}
			if err := it.run(nil); err != nil {
				return err
			}
			r, err := it.verify(nil)
			it.close()
			if err != nil {
				return err
			}
			g[w.name][strconv.FormatInt(seed, 10)] = goldenEntry{WJCT: r.wjct, Digest: fmt.Sprintf("%016x", r.digest), Rows: r.rows}
			fmt.Fprintf(os.Stderr, "%s seed %d: WJCT %.17g digest %016x\n", w.name, seed, r.wjct, r.digest)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
