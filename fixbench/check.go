package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"moloc/internal/fingerprint"
	"moloc/internal/localizer"
	"moloc/internal/motiondb"
	"moloc/internal/tracker"
)

// oracleFixes replays every walk through an in-process tracker fed the
// same inputs and the same snapshot sequence the server published:
// snaps[r] serves round r. It is the reference every served fix must
// equal.
func oracleFixes(h *harness, in *inputs, snaps []*motiondb.Compiled) ([][]tracker.Fix, int64, error) {
	sp := h.sp
	out := make([][]tracker.Fix, len(in.walkers))
	var cell atomic.Pointer[motiondb.Compiled]
	var swaps int64
	for w, wk := range in.walkers {
		tk, err := newTracker(h, wk)
		if err != nil {
			return nil, 0, err
		}
		// A session adopts the snapshot published when it is created.
		cell.Store(snaps[0])
		tk.UseSnapshot(&cell)
		out[w] = make([]tracker.Fix, len(wk.Intervals))
		for r := 0; r < numRounds(sp); r++ {
			cell.Store(snaps[r])
			lo, hi := roundIntervals(sp, r)
			for k := lo; k < hi; k++ {
				fixes := feedInterval(tk, &wk.Intervals[k], nil)
				if len(fixes) != 1 {
					return nil, 0, fmt.Errorf("oracle: walker %d interval %d: %d fixes", w, k, len(fixes))
				}
				out[w][k] = fixes[0]
			}
		}
		swaps += tk.Stats().SnapshotSwaps
	}
	return out, swaps, nil
}

// newTracker builds a tracker configured exactly as the server's
// session for this walker.
func newTracker(h *harness, wk walker) (*tracker.Tracker, error) {
	cfg := tracker.NewConfig(wk.StepLen)
	cfg.Motion = h.sys.Config.Motion
	cfg.MoLoc.Gate = h.sp.gate
	return tracker.New(h.sys.Plan, h.dep.FDB, h.sys.MDB, cfg)
}

// feedInterval uploads one interval into a tracker the way the server's
// /batch handler does and closes it. The fixes are appended to dst, the
// caller's reused buffer.
//
//moloc:reuse
func feedInterval(tk *tracker.Tracker, iv *interval, dst []tracker.Fix) []tracker.Fix {
	for _, s := range iv.Samples {
		tk.AddIMU(s)
	}
	for _, sc := range iv.Scans {
		tk.AddScan(sc.T, fingerprint.Fingerprint(sc.RSS))
	}
	return tk.TickBatch(iv.End, dst[:0])
}

// checkServed compares every fix of a pass against the oracle: each
// interval yields exactly one fix, on the interval grid, equal to the
// in-process tracker's (location, time, moved, mode, and — over HTTP —
// the candidate set).
func checkServed(in *inputs, p *passRec, oracle [][]tracker.Fix, withCands bool) error {
	for w, wk := range in.walkers {
		for k, iv := range wk.Intervals {
			s, o := p.fixes[w][k], oracle[w][k]
			where := fmt.Sprintf("walker %d interval %d", w, k)
			if !s.OK {
				return fmt.Errorf("%s: no fix served", where)
			}
			if s.T != iv.End || o.T != iv.End {
				return fmt.Errorf("%s: fix at t=%v (oracle %v), interval ends at %v", where, s.T, o.T, iv.End)
			}
			if s.Loc != o.Loc || s.Moved != o.Moved || s.Mode != o.Mode.String() {
				return fmt.Errorf("%s: served loc=%d moved=%v mode=%s, tracker loc=%d moved=%v mode=%s",
					where, s.Loc, s.Moved, s.Mode, o.Loc, o.Moved, o.Mode)
			}
			if withCands && !sameCandidates(s.Candidates, o.Candidates) {
				return fmt.Errorf("%s: served candidates %v, tracker %v", where, s.Candidates, o.Candidates)
			}
		}
	}
	return nil
}

func sameCandidates(a, b []fingerprint.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bruteTopK is the independent k-NN: Euclidean distance to every
// (optionally masked) radio-map location, sorted by (distance,
// location), top k, with Eq. 4's probabilities over the kept set.
func bruteTopK(db *fingerprint.DB, fp fingerprint.Fingerprint, k int, mask func(loc int) bool) []fingerprint.Candidate {
	var all []fingerprint.Candidate
	for loc := 1; loc <= db.NumLocs(); loc++ {
		if mask != nil && !mask(loc) {
			continue
		}
		row := db.At(loc)
		var s float64
		for a, v := range fp {
			d := v - row[a]
			s += d * d
		}
		all = append(all, fingerprint.Candidate{Loc: loc, Dissim: math.Sqrt(s)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dissim != all[j].Dissim {
			return all[i].Dissim < all[j].Dissim
		}
		return all[i].Loc < all[j].Loc
	})
	if len(all) > k {
		all = all[:k]
	}
	var inv float64
	for _, c := range all {
		inv += 1 / c.Dissim
	}
	for i := range all {
		all[i].Prob = (1 / all[i].Dissim) / inv
	}
	return all
}

// sameTopK compares a library top-k against the brute-force one:
// locations and distances exactly, probabilities to rounding.
func sameTopK(lib, ref []fingerprint.Candidate) bool {
	if len(lib) != len(ref) {
		return false
	}
	for i := range lib {
		if lib[i].Loc != ref[i].Loc || lib[i].Dissim != ref[i].Dissim ||
			math.Abs(lib[i].Prob-ref[i].Prob) > 1e-12 {
			return false
		}
	}
	return true
}

// servingScan is the scan the tracker localizes an interval with: the
// most recent one before its end.
func servingScan(iv *interval) fingerprint.Fingerprint {
	return fingerprint.Fingerprint(iv.Scans[len(iv.Scans)-1].RSS)
}

// oneHopMask rebuilds the reachability gate's mask from the previous
// fix's candidates and the compiled adjacency: the candidates plus
// every location one motion-database hop from them.
func oneHopMask(q *fingerprint.Query, prev []fingerprint.Candidate, cmp *motiondb.Compiled) {
	q.ResetMask()
	for _, c := range prev {
		q.MaskLoc(c.Loc)
		lo, hi := cmp.Row(c.Loc)
		for e := lo; e < hi; e++ {
			q.MaskLoc(cmp.Col(e))
		}
	}
}

// accuracy holds the fix-error figures of a pass (every pass serves
// the same fixes).
type accuracy struct {
	fixErrMean float64 // MoLoc fix vs truth, mean meters
	nnErrMean  float64 // nearest fingerprint vs truth, mean meters
}

// claimHolds reports whether MoLoc's mean error is below the nearest
// fingerprint's on the same scans.
func (a accuracy) claimHolds() bool { return a.fixErrMean < a.nnErrMean }

// checkScans runs the independent top-k oracle over every interval's
// serving scan — the full scan, and the masked scan under the one-hop
// mask of the previous fix — and scores the fixes and the nearest
// fingerprint against the walker's true position.
//
// Whether the fixes beat the nearest fingerprint (the paper's central
// claim, claimHolds) is not an output check: it is scored as one
// operation per pass, failed when the claim does not hold.
func checkScans(src fingerprint.MaskedCandidateAppender, db *fingerprint.DB, h *harness, in *inputs,
	oracle [][]tracker.Fix, snaps []*motiondb.Compiled) (accuracy, error) {
	kk := localizer.NewConfig().K
	q := fingerprint.NewQuery(db.NumLocs())
	var acc accuracy
	var fixErr, nnErr float64
	n := 0
	for w, wk := range in.walkers {
		for k := range wk.Intervals {
			iv := &wk.Intervals[k]
			fp := servingScan(iv)
			lib := src.CandidatesAppend(nil, fp, kk)
			ref := bruteTopK(db, fp, kk, nil)
			if !sameTopK(lib, ref) {
				return acc, fmt.Errorf("walker %d interval %d: CandidatesAppend %v, brute force %v", w, k, lib, ref)
			}
			if k > 0 {
				oneHopMask(q, oracle[w][k-1].Candidates, snaps[roundOf(h.sp, k)])
				lib, ok := src.CandidatesMaskedAppend(nil, fp, kk, q)
				if !ok {
					return acc, fmt.Errorf("walker %d interval %d: masked scan refused", w, k)
				}
				ref := bruteTopK(db, fp, kk, q.Masked)
				if !sameTopK(lib, ref) {
					return acc, fmt.Errorf("walker %d interval %d: CandidatesMaskedAppend %v, brute force %v", w, k, lib, ref)
				}
			}
			fixErr += h.sys.Plan.LocPos(oracle[w][k].Loc).Dist(iv.Truth)
			nnErr += h.sys.Plan.LocPos(ref[0].Loc).Dist(iv.Truth)
			n++
		}
	}
	if n == 0 {
		return acc, errors.New("no intervals")
	}
	acc.fixErrMean = fixErr / float64(n)
	acc.nnErrMean = nnErr / float64(n)
	return acc, nil
}

// roundOf is the crowd round that replays interval k.
func roundOf(sp spec, k int) int {
	for r := 0; r < numRounds(sp); r++ {
		if lo, hi := roundIntervals(sp, r); k >= lo && k < hi {
			return r
		}
	}
	return 0
}

// checkObservations is crowd-ingest's exactly-once accounting: every
// observation the pass pushed was acked, and the server counted each
// one exactly once.
func checkObservations(in *inputs, p *passRec, serverIn int64) error {
	if p.obsAcked != len(in.obs) {
		return fmt.Errorf("%d of %d observations acked", p.obsAcked, len(in.obs))
	}
	if serverIn != int64(len(in.obs)) {
		return fmt.Errorf("server counted %d observations, %d were acked", serverIn, len(in.obs))
	}
	return nil
}
