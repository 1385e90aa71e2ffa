// Command fixbench is the fix-path benchmark: it builds a workload's
// deployment from a seed, serves it from an in-process server on
// loopback listeners, drives it from at most two client goroutines as
// a closed loop (each phone waits for its fix before uploading its
// next interval), checks every output against independent oracles, and
// prints its metrics as one JSON line.
//
//	bash fixbench/run.sh --workload office-http --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it also runs a traced pass and the layer ladder and
// prints the per-layer metrics instead. With --repeat N it runs the
// workload N times (seeds seed..seed+N-1), each in its own process, and
// prints every metric's median, quartiles and spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"moloc/internal/motiondb"
	"moloc/internal/tracker"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: office-http, venue4096-stream or crowd-ingest")
		seed     = flag.Int64("seed", 1, "input seed: venue, walks, scans and observations derive from it")
		seconds  = flag.Float64("seconds", 25, "measured time of a run, spent in whole passes")
		traceOn  = flag.Int("trace", 0, "1 runs the traced pass and the layer ladder and prints per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for the server's data, spans and scratch files")
		repeat   = flag.Int("repeat", 0, "run the workload this many times, one process each, and summarize the spread")
	)
	flag.Parse()
	// One P: the load generator and the server hand work to each other
	// as goroutine switches on one thread instead of waking a thread
	// parked on the other vCPU. On a shared 2-vCPU host those wake-ups
	// stall the closed loop for as long as the host takes: with two Ps,
	// pass wall time (fixes_per_s) spread 13-39 % across seeds while CPU
	// per pass and the median latency spread 3-14 %; with one P, wall
	// time follows CPU time.
	runtime.GOMAXPROCS(1)
	sp, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "fixbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(sp, *seed, *seconds, *traceOn, *out, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "fixbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "fixbench:", err)
		os.Exit(1)
	}
	res, err := runWorkload(sp, *seed, *seconds, *traceOn == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fixbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fixbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// env is a set-up workload: the deployment, the server, the current
// pass's sessions, the inputs, and the oracle fix stream.
type env struct {
	sp     spec
	h      *harness
	in     *inputs
	bodies [][][]byte
	ids    []string
	oracle [][]tracker.Fix
	// oracleSnaps[r] is the compiled motion index round r was served
	// with.
	oracleSnaps []*motiondb.Compiled
	fold        *fold
	// swaps counts the snapshot swaps the oracle's trackers adopted.
	swaps int64
	// acc scores the oracle's fixes (equal to every pass's).
	acc    accuracy
	out    string
	passNo int
	// used is set once the current sessions have served a pass.
	used bool
	// setup holds the duration of every setup; build the core.Build +
	// Deploy part of each.
	setup, build []time.Duration
	sessionUs    float64
}

func (e *env) dataDir() string {
	if !e.sp.crowd {
		return ""
	}
	return filepath.Join(e.out, fmt.Sprintf("data-%d-%d", os.Getpid(), e.passNo))
}

// setUp builds the deployment, constructs the server and creates the
// sessions sp.setups times, keeping the last and timing each.
func setUp(sp spec, seed int64, out string) (_ *env, err error) {
	e := &env{sp: sp, out: out}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	for i := 0; i < sp.setups; i++ {
		if e.h != nil {
			e.h.close()
			e.h = nil
		}
		runtime.GC()
		t0 := time.Now()
		sys, dep, err := buildDeployment(sp, seed)
		if err != nil {
			return nil, fmt.Errorf("building the deployment: %w", err)
		}
		built := time.Since(t0)
		if e.in == nil {
			// The inputs are the phones' side, not the system's set-up.
			if e.in, err = makeInputs(sp, sys, seed); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		if e.h, err = newHarness(sp, sys, dep, e.dataDir()); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if e.ids, err = e.h.createSessions(e.in.walkers); err != nil {
			return nil, err
		}
		done := time.Now()
		e.setup = append(e.setup, built+done.Sub(t1))
		e.build = append(e.build, built)
		e.sessionUs = float64(done.Sub(t2).Nanoseconds()) / 1e3 / float64(len(e.ids))
	}
	if !sp.stream {
		var err error
		if e.bodies, err = marshalBodies(e.in); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// nextPass gives the coming pass fresh sessions — and, for the crowd
// workload, a fresh server on a fresh data directory — so every pass
// starts from the same state and serves the same fixes.
func (e *env) nextPass() error {
	e.passNo++
	var err error
	if e.sp.crowd {
		sys, dep := e.h.sys, e.h.dep
		e.h.close()
		if e.h, err = newHarness(e.sp, sys, dep, e.dataDir()); err != nil {
			return err
		}
	} else if err = e.h.deleteSessions(e.ids); err != nil {
		return err
	}
	e.ids, err = e.h.createSessions(e.in.walkers)
	return err
}

// verifyPass checks one pass's outputs: every fix against the oracle,
// and for the crowd workload the exactly-once observation accounting
// and the published motion database.
func (e *env) verifyPass(p *passRec) error {
	if len(p.errs) > 0 {
		return p.errs[0]
	}
	if e.oracle == nil {
		snaps := p.snaps
		if !e.sp.crowd {
			snaps = append(snaps, e.h.srv.CompiledSnapshot())
		}
		var err error
		if e.oracle, e.swaps, err = oracleFixes(e.h, e.in, snaps); err != nil {
			return err
		}
		e.oracleSnaps = snaps
		if e.acc, err = checkScans(e.h.dep.FDB, e.h.dep.FDB, e.h, e.in, e.oracle, snaps); err != nil {
			return err
		}
		if !e.acc.claimHolds() {
			fmt.Fprintf(os.Stderr, "fixbench: %s: MoLoc mean error %.3f m is not below the nearest fingerprint's %.3f m; counted as one failed operation per pass\n",
				e.sp.name, e.acc.fixErrMean, e.acc.nnErrMean)
		}
	}
	if err := checkServed(e.in, p, e.oracle, !e.sp.stream); err != nil {
		return err
	}
	if !e.sp.crowd {
		return nil
	}
	if err := checkObservations(e.in, p, e.h.observationsIn()); err != nil {
		return err
	}
	if e.fold == nil {
		dir := filepath.Join(e.out, fmt.Sprintf("fold-%d", os.Getpid()))
		defer os.RemoveAll(dir)
		var err error
		if e.fold, err = foldPass(e.h.sys, e.in, dir); err != nil {
			return err
		}
	}
	return checkFold(e.h, e.fold, p)
}

// phase is one measured phase: whole passes until the time is spent.
type phase struct {
	passes int
	fixes  int
	wall   time.Duration
	// Per-pass figures: CPU seconds, fixes per second, and the median,
	// p90 and p99 upload→fix latency in µs. A run reports their medians.
	cpu, rate, p50, p90, p99 []float64
	ackLatUs                 []float64
	retrainMs                []float64
	obsAcked                 int
	attempted                int
	failed                   int
	fsyncs                   float64 // per pass
	batches                  float64 // per pass
}

// measure runs whole passes until seconds of pass time are spent,
// verifying each pass. The first pass of a phase may be a warm-up:
// warm passes run, and are verified, but are not counted.
func (e *env) measure(seconds float64, warm int, tr *tracer) (*phase, error) {
	ph := &phase{}
	for i := 0; ; i++ {
		if e.used {
			if err := e.nextPass(); err != nil {
				return nil, err
			}
		}
		e.used = true
		// Every pass starts on a settled heap, so collections fall at the
		// same points of every pass.
		runtime.GC()
		var ptr *tracer
		if i >= warm {
			ptr = tr
		}
		p := newPassRec(e.in)
		g0 := e.h.srv.GroupStats()
		c0 := cpuTime()
		ps := ptr.open("pass", uint64(e.passNo))
		runPass(e.h, e.in, e.bodies, e.ids, p, ptr, e.passNo)
		ptr.shut(ps)
		cpu := cpuTime() - c0
		g1 := e.h.srv.GroupStats()
		if err := e.verifyPass(p); err != nil {
			return nil, fmt.Errorf("pass %d: %w", e.passNo, err)
		}
		if i < warm {
			continue
		}
		ph.passes++
		ph.fixes += e.in.fixes()
		ph.wall += p.wall
		ph.cpu = append(ph.cpu, cpu.Seconds())
		ph.rate = append(ph.rate, float64(e.in.fixes())/p.wall.Seconds())
		ph.p50 = append(ph.p50, quantile(p.fixLatUs, 0.50))
		ph.p90 = append(ph.p90, quantile(p.fixLatUs, 0.90))
		ph.p99 = append(ph.p99, quantile(p.fixLatUs, 0.99))
		ph.ackLatUs = append(ph.ackLatUs, p.ackLatUs...)
		ph.retrainMs = append(ph.retrainMs, p.retrainMs...)
		ph.obsAcked += p.obsAcked
		// The accuracy claim is one operation of every pass.
		ph.attempted += p.attempted + 1
		ph.failed += p.failed
		if !e.acc.claimHolds() {
			ph.failed++
		}
		ph.fsyncs += float64(g1.Syncs - g0.Syncs)
		ph.batches += float64(g1.Batches - g0.Batches)
		if ph.wall.Seconds() >= seconds {
			break
		}
	}
	ph.fsyncs /= float64(ph.passes)
	ph.batches /= float64(ph.passes)
	return ph, nil
}

// heapLiveMB is the live heap after a forced GC, in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (e *env) close() {
	if e.h != nil {
		e.h.close()
	}
}

// runWorkload sets up, measures, checks, and returns the run's result.
func runWorkload(sp spec, seed int64, seconds float64, traced bool, out string) (*result, error) {
	e, err := setUp(sp, seed, out)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	ph, err := e.measure(seconds, 1, nil)
	if err != nil {
		return nil, err
	}
	heap := heapLiveMB()
	acc := e.acc
	// Every output check passed, or measure would have failed the run.
	res.Attempted, res.Failed = ph.attempted, ph.failed
	if !traced {
		add := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
		add("setup_s", "s", median(durSeconds(e.setup)))
		add("fixes_per_s", "1/s", median(ph.rate))
		add("fix_p50_us", "us", median(ph.p50))
		add("cpu_s", "s", median(ph.cpu))
		add("fix_err_mean_m", "m", acc.fixErrMean)
		add("heap_live_mb", "MB", heap)
		return res, nil
	}
	lm, err := e.layers(seconds, ph, acc)
	if err != nil {
		return nil, err
	}
	res.Metrics = lm
	return res, nil
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
