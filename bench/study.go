package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"time"

	"repro/internal/core"
)

// runStudy is the researcher's batch reproduction: build a world
// (core.NewStudy), run the campaigns, the §5 sweep and the §4 analyses
// (Run), on an in-memory journal with no HTTP and no disk. One
// operation is one whole study; its world generation (NewStudy) is the
// set-up. Every iteration uses the same world seed, so the stable
// results JSON must hash the same every time.
func runStudy(r *runner) error {
	var setups, ops []time.Duration
	var hashes []string
	var last *core.Study
	var lastRes *core.Results
	runtime.GC()
	r.beginMeasure()
	for i := 0; i < r.sz.minIters || r.since()-r.from < r.sz.seconds; i++ {
		last, lastRes = nil, nil // hold one world at a time
		start := time.Now()
		study, res, newStudy, err := buildWorld(r.tr, r.worldSeed(), r.sz.studyScale)
		if err != nil {
			return err
		}
		ops = append(ops, time.Since(start))
		setups = append(setups, newStudy)
		data, err := res.MarshalJSONStable()
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		hashes = append(hashes, hex.EncodeToString(sum[:]))
		last, lastRes = study, res
	}
	r.endMeasure()
	r.rec.Attempted = len(ops)

	same := true
	for _, h := range hashes {
		same = same && h == hashes[0]
	}
	r.rec.Hash = hashes[0]
	r.check("study.results_hash_stable", same, "%d iterations, sha256 %s", len(hashes), hashes[0])

	r.endToEnd(setups, msList(ops))
	r.detail("wall_s", percentile(msList(ops), 50)/1e3, "s")
	r.detail("journal_events", float64(last.Store().Journal().Len()), "count")
	if r.tr == nil {
		return nil
	}
	p, err := r.probe(last.Store(), lastRes)
	if err != nil {
		return err
	}
	r.perLayer(p, nil)
	return nil
}
