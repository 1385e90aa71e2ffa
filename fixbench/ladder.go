package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"moloc/internal/fingerprint"
	"moloc/internal/localizer"
	"moloc/internal/motion"
	"moloc/internal/motiondb"
	"moloc/internal/tracker"
	"moloc/internal/wire"
)

// The layer ladder: layers that are reachable only inside another are
// timed by driving the same inputs through a ladder of public entry
// points, single-threaded, each rung on fresh state. A rung's self time
// is its mean time per fix minus the rungs below it:
//
//	scan: CandidatesAppend / CandidatesMaskedAppend
//	localize: (*MoLoc).Localize            minus the scan it ran
//	extract: motion.Extract + MeanHeading
//	tracker: AddIMU/AddScan/TickBatch      minus localize and extract
//	http handler: Handler().ServeHTTP      minus tracker
//	http socket: POST over loopback        minus http handler
//	stream: wire client over net.Pipe      minus tracker
//	wire socket: wire client over loopback minus stream over net.Pipe

// allocObjects reads the process's cumulative heap allocation count.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// pipeListener hands ServeStreams in-memory connections from net.Pipe.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.ch <- s:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// servePipe starts ServeStreams on an in-memory listener; the server's
// Close closes it.
func (h *harness) servePipe() *pipeListener {
	pl := newPipeListener()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		//lint:ignore errdrop ServeStreams returns once the server closes; a failed stream fails its rung
		_ = h.srv.ServeStreams(pl)
	}()
	return pl
}

// ladderReps is how many times each rung runs. The rungs run in turn,
// rep after rep, and each figure is the median over reps, so a drift of
// the host's speed during the ladder does not land on one rung alone.
const ladderReps = 5

// rungs holds the ladder's per-fix means in µs and allocation counts.
type rungs struct {
	full, masked, maskLocs     float64
	extract, localize, gated   float64
	tracker, trackerAllocs     float64
	handler, handlerAllocs     float64
	httpLoop, pipe, streamLoop float64
	obsPipe                    float64
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, id uint64, fn func()) time.Duration {
	s := t.begin(name, id)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(s)
	return d
}

func perFixUs(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }

// ladder runs every rung ladderReps times over one pass's inputs
// against the current server and compiled snapshot, and reports each
// figure's median over reps.
func (e *env) ladder(tr *tracer) (*rungs, error) {
	var reps []rungs
	pl := e.h.servePipe()
	for i := 0; i < ladderReps; i++ {
		r, err := e.ladderRep(tr, pl, i)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	med := func(f func(r *rungs) float64) float64 {
		xs := make([]float64, len(reps))
		for i := range reps {
			xs[i] = f(&reps[i])
		}
		return median(xs)
	}
	return &rungs{
		full:          med(func(r *rungs) float64 { return r.full }),
		masked:        med(func(r *rungs) float64 { return r.masked }),
		maskLocs:      reps[0].maskLocs,
		extract:       med(func(r *rungs) float64 { return r.extract }),
		localize:      med(func(r *rungs) float64 { return r.localize }),
		gated:         reps[0].gated,
		tracker:       med(func(r *rungs) float64 { return r.tracker }),
		trackerAllocs: med(func(r *rungs) float64 { return r.trackerAllocs }),
		handler:       med(func(r *rungs) float64 { return r.handler }),
		handlerAllocs: med(func(r *rungs) float64 { return r.handlerAllocs }),
		httpLoop:      med(func(r *rungs) float64 { return r.httpLoop }),
		pipe:          med(func(r *rungs) float64 { return r.pipe }),
		streamLoop:    med(func(r *rungs) float64 { return r.streamLoop }),
		obsPipe:       med(func(r *rungs) float64 { return r.obsPipe }),
	}, nil
}

// ladderRep runs every rung once, each on fresh state.
func (e *env) ladderRep(tr *tracer, pl *pipeListener, rep int) (rungs, error) {
	h, in := e.h, e.in
	snap := h.srv.CompiledSnapshot()
	db := h.dep.FDB
	lcfg := localizer.NewConfig()
	lcfg.Gate = e.sp.gate
	fixes := in.fixes()
	var r rungs
	runtime.GC()

	// Scan rung: the full scan, and the masked scan under the one-hop
	// mask of the oracle's previous fix.
	rs := tr.open("ladder.scan", uint64(rep))
	q := fingerprint.NewQuery(db.NumLocs())
	var buf []fingerprint.Candidate
	var full, masked time.Duration
	maskedN := 0
	for w, wk := range in.walkers {
		for k := range wk.Intervals {
			fp := servingScan(&wk.Intervals[k])
			full += tr.timed("fingerprint.CandidatesAppend", fixID(w, k), func() {
				buf = db.CandidatesAppend(buf[:0], fp, lcfg.K)
			})
			if k == 0 {
				continue
			}
			oneHopMask(q, e.oracle[w][k-1].Candidates, e.oracleSnaps[roundOf(e.sp, k)])
			r.maskLocs += float64(q.MaskCount())
			maskedN++
			masked += tr.timed("fingerprint.CandidatesMaskedAppend", fixID(w, k), func() {
				buf, _ = db.CandidatesMaskedAppend(buf[:0], fp, lcfg.K, q)
			})
		}
	}
	tr.shut(rs)
	r.full = perFixUs(full, fixes)
	if maskedN > 0 {
		r.masked = perFixUs(masked, maskedN)
		r.maskLocs /= float64(maskedN)
	}

	// Extract and localize rungs: the tracker's interval close, step by
	// step, on a localizer configured as the sessions'.
	rs = tr.open("ladder.extract_localize", uint64(rep))
	var extract, localize time.Duration
	gated := 0
	for w, wk := range in.walkers {
		ml, err := localizer.NewMoLoc(db, h.sys.MDB, lcfg)
		if err != nil {
			return r, err
		}
		if err := ml.UseCompiled(snap); err != nil {
			return r, err
		}
		var est motion.HeadingEstimator
		last := 0
		for k := range wk.Intervals {
			iv := &wk.Intervals[k]
			obs := localizer.Observation{FP: servingScan(iv)}
			var (
				rlm     motion.RLM
				ok      bool
				compass float64
				loc     int
			)
			extract += tr.timed("motion.Extract", fixID(w, k), func() {
				rlm, ok = motion.Extract(h.sys.Config.Motion, iv.Samples, iv.Start, iv.End, wk.StepLen, &est)
				compass = motion.MeanHeading(iv.Samples)
			})
			if ok {
				obs.Motion = &rlm
			}
			localize += tr.timed("localizer.Localize", fixID(w, k), func() { loc = ml.Localize(obs) })
			if ok && last != 0 && last != loc {
				est.Observe(compass, h.sys.Plan.LocBearing(last, loc))
			}
			last = loc
		}
		gated += ml.GatedScans()
	}
	tr.shut(rs)
	r.extract = perFixUs(extract, fixes)
	r.localize = perFixUs(localize, fixes)
	r.gated = float64(gated) / float64(fixes)

	// Tracker rung.
	rs = tr.open("ladder.tracker", uint64(rep))
	var cell atomic.Pointer[motiondb.Compiled]
	cell.Store(snap)
	runtime.GC()
	a0 := allocObjects()
	var tick time.Duration
	fixBuf := make([]tracker.Fix, 0, 4)
	for w, wk := range in.walkers {
		tk, err := newTracker(h, wk)
		if err != nil {
			return r, err
		}
		tk.UseSnapshot(&cell)
		for k := range wk.Intervals {
			tick += tr.timed("tracker.TickBatch", fixID(w, k), func() {
				fixBuf = feedInterval(tk, &wk.Intervals[k], fixBuf)
			})
			if len(fixBuf) != 1 {
				return r, fmt.Errorf("ladder tracker: walker %d interval %d: %d fixes", w, k, len(fixBuf))
			}
		}
	}
	tr.shut(rs)
	r.trackerAllocs = float64(allocObjects()-a0) / float64(fixes)
	r.tracker = perFixUs(tick, fixes)

	// HTTP handler rung, in process, no socket.
	rs = tr.open("ladder.http_handler", uint64(rep))
	bodies := e.bodies
	if bodies == nil {
		var err error
		if bodies, err = marshalBodies(in); err != nil {
			return r, err
		}
	}
	ids, err := h.createSessions(in.walkers)
	if err != nil {
		return r, err
	}
	runtime.GC()
	a0 = allocObjects()
	var reqAllocs uint64
	var handler time.Duration
	for w, wk := range in.walkers {
		for k := range wk.Intervals {
			b0 := allocObjects()
			req := httptest.NewRequest("POST", "/v1/sessions/"+ids[w]+"/batch", bytes.NewReader(bodies[w][k]))
			rec := httptest.NewRecorder()
			reqAllocs += allocObjects() - b0
			handler += tr.timed("server.ServeHTTP", fixID(w, k), func() { h.handler.ServeHTTP(rec, req) })
			if rec.Code != http.StatusOK {
				return r, fmt.Errorf("ladder ServeHTTP: status %d", rec.Code)
			}
		}
	}
	tr.shut(rs)
	r.handlerAllocs = float64(allocObjects()-a0-reqAllocs) / float64(fixes)
	r.handler = perFixUs(handler, fixes)
	if err := h.deleteSessions(ids); err != nil {
		return r, err
	}

	// HTTP over one loopback keep-alive connection.
	rs = tr.open("ladder.http_loopback", uint64(rep))
	if ids, err = h.createSessions(in.walkers); err != nil {
		return r, err
	}
	c := httpClient()
	base := "http://" + h.httpLn.Addr().String() + "/v1/sessions/"
	var loop time.Duration
	for w, wk := range in.walkers {
		for k := range wk.Intervals {
			var err error
			loop += tr.timed("client.http_loopback", fixID(w, k), func() {
				_, err = postBatch(c, base+ids[w]+"/batch", bodies[w][k])
			})
			if err != nil {
				return r, err
			}
		}
	}
	tr.shut(rs)
	c.CloseIdleConnections()
	r.httpLoop = perFixUs(loop, fixes)
	if err := h.deleteSessions(ids); err != nil {
		return r, err
	}

	// The stream, over net.Pipe and then over loopback.
	for _, leg := range []struct {
		out  *float64
		dial func() (net.Conn, error)
	}{
		{&r.pipe, pl.dial},
		{&r.streamLoop, nil},
	} {
		if ids, err = h.createSessions(in.walkers); err != nil {
			return r, err
		}
		p := newPassRec(in)
		var mu sync.Mutex
		dialer := streamDialer(h.streamLn.Addr().String(), ids, fmt.Sprintf("ladder%d", rep), wire.ClientOptions{Dial: leg.dial})
		for w := range in.walkers {
			streamWalk(dialer(w), in, w, 0, len(in.walkers[w].Intervals), &mu, p, nil)
		}
		if p.failed > 0 {
			return r, p.errs[0]
		}
		var sum float64
		for _, l := range p.fixLatUs {
			sum += l
		}
		*leg.out = sum / float64(len(p.fixLatUs))
		if err := h.deleteSessions(ids); err != nil {
			return r, err
		}
	}

	// Observation acks over net.Pipe, one batch in flight at a time: the
	// wire client holds its lock while it writes, so a pipelined burst
	// over an unbuffered pipe deadlocks against the server's ack.
	if e.sp.crowd {
		oc, err := wire.DialStream("pipe", fmt.Sprintf("ladder-obs-%d-%d", e.passNo, rep), wire.ClientOptions{Dial: pl.dial})
		if err != nil {
			return r, err
		}
		p := newPassRec(in)
		var mu sync.Mutex
		for rd := range in.roundBatches {
			pushObservations(oc, 1, in, rd, &mu, p, nil)
		}
		if err := oc.Close(); err != nil {
			return r, err
		}
		if p.failed > 0 {
			return r, p.errs[0]
		}
		var sum float64
		for _, l := range p.ackLatUs {
			sum += l
		}
		r.obsPipe = sum / float64(len(in.batches))
	}
	return r, nil
}

// layers produces the per-layer metrics: a traced measured phase
// against the untraced one (the tracing overhead), the ladder, and the
// write path's layers.
func (e *env) layers(seconds float64, ph *phase, acc accuracy) (map[string]metric, error) {
	m := map[string]metric{}
	add := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	tr := newTracer()
	tph, err := e.measure(seconds, 0, tr)
	if err != nil {
		return nil, err
	}
	untraced := float64(ph.fixes) / ph.wall.Seconds()
	traced := float64(tph.fixes) / tph.wall.Seconds()
	add("trace.overhead_pct", "%", 100*(untraced/traced-1))
	add("trace.fix_p50_us", "us", median(tph.p50))

	r, err := e.ladder(tr)
	if err != nil {
		return nil, err
	}
	scan := r.gated*r.masked + (1-r.gated)*r.full
	add("core.build_s", "s", median(durSeconds(e.build)))
	add("server.session_create_us", "us", e.sessionUs)
	add("fingerprint.full_scan_us", "us", r.full)
	add("fingerprint.masked_scan_us", "us", r.masked)
	add("fingerprint.masked_locs_per_scan", "count", r.maskLocs)
	add("localizer.localize_us", "us", r.localize-scan)
	add("localizer.gated_share", "share", r.gated)
	add("motion.extract_us", "us", r.extract)
	add("tracker.tick_us", "us", r.tracker-r.localize-r.extract)
	add("tracker.allocs_per_fix", "allocs", r.trackerAllocs)
	add("tracker.snapshot_swaps", "count", float64(e.swaps))
	add("server.http_handler_us", "us", r.handler-r.tracker)
	add("server.http_allocs_per_fix", "allocs", r.handlerAllocs)
	add("server.http_socket_us", "us", r.httpLoop-r.handler)
	add("server.stream_us", "us", r.pipe-r.tracker)
	add("wire.socket_us", "us", r.streamLoop-r.pipe)
	add("server.obs_ack_us", "us", r.obsPipe)

	// The write path (zero where the workload does not exercise it).
	var obsPerS, fsyncs, perSync, foldUs, recompMs, saveMs, ckptBytes, dirty, retrainSelf float64
	if e.sp.crowd {
		f := e.fold
		obsPerS = float64(ph.obsAcked) / ph.wall.Seconds()
		fsyncs = ph.fsyncs
		if ph.fsyncs > 0 {
			perSync = ph.batches / ph.fsyncs
		}
		foldUs = float64(f.foldDur.Nanoseconds()) / 1e3 / float64(f.obs)
		recompMs = meanMs(f.recompDur)
		saveMs = meanMs(f.saveDur)
		ckptBytes = float64(f.bytes)
		for _, d := range f.dirty {
			dirty += float64(d)
		}
		dirty /= float64(len(f.dirty))
		var retrain float64
		for _, x := range ph.retrainMs {
			retrain += x
		}
		retrain /= float64(len(ph.retrainMs))
		retrainSelf = retrain - (float64(f.foldDur.Nanoseconds())/1e6/float64(len(f.dirty)) + recompMs + saveMs)
	}
	add("obs_per_s", "1/s", obsPerS)
	add("ack_p50_us", "us", quantile(ph.ackLatUs, 0.5))
	add("retrain_p50_ms", "ms", quantile(ph.retrainMs, 0.5))
	add("wal.fsyncs", "count", fsyncs)
	add("wal.batches_per_fsync", "ratio", perSync)
	add("motiondb.fold_us_per_obs", "us", foldUs)
	add("motiondb.recompile_ms", "ms", recompMs)
	add("motiondb.dirty_edges", "count", dirty)
	add("checkpoint.save_ms", "ms", saveMs)
	add("checkpoint.bytes", "bytes", ckptBytes)
	add("server.retrain_ms", "ms", retrainSelf)
	add("fix_err_nn_m", "m", acc.nnErrMean)
	add("fix_p90_us", "us", median(ph.p90))
	add("fix_p99_us", "us", median(ph.p99))

	path := filepath.Join(e.out, fmt.Sprintf("spans-%s-%d.jsonl", e.sp.name, os.Getpid()))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	return m, nil
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return float64(s.Nanoseconds()) / 1e6 / float64(len(ds))
}
