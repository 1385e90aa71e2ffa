package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"moloc/internal/checkpoint"
	"moloc/internal/core"
	"moloc/internal/fault"
	"moloc/internal/localizer"
	"moloc/internal/motiondb"
)

// latestCheckpoint reads the newest valid checkpoint under a server
// data directory.
func latestCheckpoint(dataDir string) ([]byte, uint64, checkpoint.Stats, error) {
	return checkpoint.Latest(fault.Disk{}, filepath.Join(dataDir, "checkpoints"))
}

// fold is a benchmark-owned copy of the retrain pipeline: a fresh
// motiondb.Builder folding the same observations round by round, the
// dirty-edge recompile, and the checkpoint save. Its final database is
// what the server must have published, and its timings are the
// motiondb and checkpoint layers' per-layer figures.
type fold struct {
	b   *motiondb.Builder
	db  *motiondb.DB
	cmp *motiondb.Compiled
	dir string
	seq uint64

	obs       int
	foldDur   time.Duration
	recompDur []time.Duration
	saveDur   []time.Duration
	dirty     []int
	bytes     int
}

func newFold(sys *core.System, dir string) (*fold, error) {
	bcfg := motiondb.NewBuilderConfig()
	bcfg.MapFallback = false
	b, err := motiondb.NewBuilder(sys.Plan, bcfg)
	if err != nil {
		return nil, err
	}
	b.UseGraph(sys.Graph)
	lcfg := localizer.NewConfig()
	db := sys.MDB.Clone()
	cmp, err := db.Compile(lcfg.Alpha, lcfg.Beta)
	if err != nil {
		return nil, err
	}
	return &fold{b: b, db: db, cmp: cmp, dir: dir}, nil
}

// round folds one round's observations, recompiles the edges whose
// entries changed, and checkpoints the state.
func (f *fold) round(obs []motiondb.Observation) error {
	t0 := time.Now()
	f.b.AddAll(obs)
	built := f.b.Build()
	f.foldDur += time.Since(t0)
	f.obs += len(obs)

	var dirty [][2]int
	for _, pair := range f.b.TakeTouched() {
		ne, ok := built.Lookup(pair[0], pair[1])
		if !ok {
			continue
		}
		if cur, ok := f.db.Lookup(pair[0], pair[1]); ok && cur == ne {
			continue
		}
		f.db.Set(pair[0], pair[1], ne)
		dirty = append(dirty, pair)
	}
	f.dirty = append(f.dirty, len(dirty))
	t1 := time.Now()
	if len(dirty) > 0 {
		cmp, err := f.cmp.RecompileEdges(f.db, dirty)
		if err != nil {
			lcfg := localizer.NewConfig()
			if cmp, err = f.db.Compile(lcfg.Alpha, lcfg.Beta); err != nil {
				return err
			}
		}
		f.cmp = cmp
	}
	f.recompDur = append(f.recompDur, time.Since(t1))

	dbBytes, err := f.db.Encode()
	if err != nil {
		return err
	}
	bld, err := f.b.EncodeState()
	if err != nil {
		return err
	}
	payload, err := json.Marshal(struct {
		DB      json.RawMessage `json:"db"`
		Builder json.RawMessage `json:"builder"`
	}{dbBytes, bld})
	if err != nil {
		return err
	}
	f.seq++
	t2 := time.Now()
	if err := checkpoint.Save(fault.Disk{}, f.dir, f.seq, payload); err != nil {
		return err
	}
	f.saveDur = append(f.saveDur, time.Since(t2))
	f.bytes = len(payload)
	return checkpoint.Prune(fault.Disk{}, f.dir, 2)
}

// foldPass folds a crowd pass's observations round by round.
func foldPass(sys *core.System, in *inputs, dir string) (*fold, error) {
	f, err := newFold(sys, dir)
	if err != nil {
		return nil, err
	}
	for _, rb := range in.roundBatches {
		lo := rb[0] * len(in.batches[0])
		hi := rb[1] * len(in.batches[0])
		if err := f.round(in.obs[lo:hi]); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// checkFold compares the server's published motion database and
// builder state with the benchmark's own fold of the same
// observations, and the server's per-round dirty-edge counts with the
// fold's.
func checkFold(h *harness, f *fold, p *passRec) error {
	gotDB, gotBuilder, err := h.publishedState()
	if err != nil {
		return fmt.Errorf("reading the published training state: %w", err)
	}
	wantDB, err := f.db.Encode()
	if err != nil {
		return err
	}
	if !bytes.Equal(gotDB, wantDB) {
		return fmt.Errorf("published motion database (%d bytes) differs from a fresh fold of the acked observations (%d bytes)", len(gotDB), len(wantDB))
	}
	wantBuilder, err := f.b.EncodeState()
	if err != nil {
		return err
	}
	if !bytes.Equal(gotBuilder, wantBuilder) {
		return fmt.Errorf("published builder state (%d bytes) differs from a fresh fold of the acked observations (%d bytes)", len(gotBuilder), len(wantBuilder))
	}
	for r := range f.dirty {
		if r >= len(p.dirty) || p.dirty[r] != f.dirty[r] {
			return fmt.Errorf("round %d: RetrainNow reported %v dirty edges, the fold %v", r, p.dirty, f.dirty)
		}
	}
	return nil
}
