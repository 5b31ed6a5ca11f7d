package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// recordRefs runs every op of the tune and hostio workloads once, in
// canonical order, and writes their digests as refs/<workload>.json
// under dir. Run it only on the tree the references pin: a later tree
// must reproduce them, not rewrite them.
func recordRefs(dir string) error {
	for _, w := range []*workload{tuneWorkload(), hostioWorkload()} {
		tr := newTracer(false)
		ops, err := w.setup(tr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		digests := map[string]any{}
		keep := func(name string, d any) error {
			digests[name] = d
			return nil
		}
		for _, o := range ops {
			res, late := runOp(o, tr, w.deadline+time.Minute, keep)
			if res.failed() || late {
				return fmt.Errorf("%s op %s: %s: %s", w.name, o.name, res.Fail, res.Err)
			}
		}
		b, err := json.MarshalIndent(digests, "", " ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, w.name+".json")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d ops\n", path, len(digests))
	}
	return nil
}
