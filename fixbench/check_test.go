package main

import (
	"strings"
	"testing"

	"moloc/internal/fingerprint"
	"moloc/internal/motiondb"
)

// tiny shrinks a workload so a test runs one pass in well under a
// second.
func tiny(t *testing.T, name string) spec {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.setups = 1
	sp.walkers = 4
	sp.intervals = 4
	if sp.grid > 0 {
		sp.grid, sp.aps, sp.train = 8, 12, 16
	}
	if sp.crowd {
		sp.rounds, sp.bursts = 2, 2
	}
	return sp
}

// onePass sets a workload up and runs, verifies and keeps one pass.
func onePass(t *testing.T, sp spec) (*env, *passRec) {
	t.Helper()
	e, err := setUp(sp, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	p := newPassRec(e.in)
	runPass(e.h, e.in, e.bodies, e.ids, p, nil, 0)
	if err := e.verifyPass(p); err != nil {
		t.Fatalf("clean pass fails its checks: %v", err)
	}
	return e, p
}

func wantErr(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s passed the checks", what)
	}
	t.Logf("%s: %v", what, err)
}

func TestCorruptedFixFails(t *testing.T) {
	for _, name := range []string{"office-http", "venue4096-stream"} {
		e, p := onePass(t, tiny(t, name))
		p.fixes[1][2].Loc = p.fixes[1][2].Loc%e.h.sys.Plan.NumLocs() + 1
		wantErr(t, e.verifyPass(p), name+": corrupted fix")
	}
}

func TestCorruptedCandidatesFail(t *testing.T) {
	e, p := onePass(t, tiny(t, "office-http"))
	p.fixes[0][1].Candidates[0].Prob += 1e-9
	wantErr(t, e.verifyPass(p), "corrupted candidate probability")
}

func TestSkippedIntervalFails(t *testing.T) {
	e, p := onePass(t, tiny(t, "office-http"))
	p.fixes[2][1] = served{}
	wantErr(t, e.verifyPass(p), "interval without a fix")

	e, p = onePass(t, tiny(t, "office-http"))
	p.fixes[2][1].T += intervalSec
	wantErr(t, e.verifyPass(p), "fix off the interval grid")
}

// wrongTopK returns a correct top-k with one entry replaced.
type wrongTopK struct {
	*fingerprint.DB
	masked bool
}

func (w wrongTopK) corrupt(c []fingerprint.Candidate) []fingerprint.Candidate {
	c[len(c)-1].Loc = c[len(c)-1].Loc%w.NumLocs() + 1
	return c
}

func (w wrongTopK) CandidatesAppend(dst []fingerprint.Candidate, f fingerprint.Fingerprint, k int) []fingerprint.Candidate {
	out := w.DB.CandidatesAppend(dst, f, k)
	if !w.masked {
		return w.corrupt(out)
	}
	return out
}

func (w wrongTopK) CandidatesMaskedAppend(dst []fingerprint.Candidate, f fingerprint.Fingerprint, k int, q *fingerprint.Query) ([]fingerprint.Candidate, bool) {
	out, ok := w.DB.CandidatesMaskedAppend(dst, f, k, q)
	if w.masked {
		return w.corrupt(out), ok
	}
	return out, ok
}

func TestWrongTopKEntryFails(t *testing.T) {
	e, _ := onePass(t, tiny(t, "venue4096-stream"))
	db := e.h.dep.FDB
	if _, err := checkScans(db, db, e.h, e.in, e.oracle, e.oracleSnaps); err != nil {
		t.Fatalf("clean scans fail: %v", err)
	}
	for _, masked := range []bool{false, true} {
		_, err := checkScans(wrongTopK{DB: db, masked: masked}, db, e.h, e.in, e.oracle, e.oracleSnaps)
		wantErr(t, err, "wrong top-k entry")
		if masked != strings.Contains(err.Error(), "Masked") {
			t.Fatalf("masked=%v caught by the wrong comparison: %v", masked, err)
		}
	}
}

func TestDroppedObservationFails(t *testing.T) {
	e, p := onePass(t, tiny(t, "crowd-ingest"))
	// One observation short on the wire.
	p.obsAcked--
	wantErr(t, e.verifyPass(p), "acked count one short")
	p.obsAcked++

	// One observation missing from the server's count.
	wantErr(t, checkObservations(e.in, p, e.h.observationsIn()-1), "server count one short")

	// The fold dropping one observation: a self-loop is discarded by
	// the builder, so the fold sees one observation fewer than the
	// server did.
	in := *e.in
	in.obs = append([]motiondb.Observation(nil), e.in.obs...)
	in.obs[len(in.obs)-1].To = in.obs[len(in.obs)-1].From
	f, err := foldPass(e.h.sys, &in, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wantErr(t, checkFold(e.h, f, p), "fold of different observations")
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
