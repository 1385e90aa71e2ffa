package main

import (
	"fmt"
	"sort"

	"moloc/internal/core"
	"moloc/internal/crowd"
	"moloc/internal/fingerprint"
	"moloc/internal/floorplan"
	"moloc/internal/geom"
	"moloc/internal/motion"
	"moloc/internal/motiondb"
	"moloc/internal/sensors"
	"moloc/internal/stats"
	"moloc/internal/trace"
)

// intervalSec is the serving localization interval (the paper's 3 s).
const intervalSec = 3.0

// scanPeriod is the phone's WiFi scan period (2 Hz).
const scanPeriod = 0.5

// spec is one workload: the venue it deploys and the traffic it drives.
type spec struct {
	name string
	// grid is the side of a square reference grid; 0 selects the
	// paper's office hall.
	grid int
	// aps is the AP count of a grid venue (the office hall has 6).
	aps int
	// train is the number of offline training traces.
	train int
	// samples is the site-survey scans per location (0 = the paper's 60).
	samples int
	// walkers replay one walk of intervals localization intervals each,
	// per pass.
	walkers   int
	intervals int
	// gate turns on reachability-gated sessions.
	gate bool
	// stream drives fixes over the binary stream instead of HTTP /batch.
	stream bool
	// crowd adds the observation write path: rounds per pass, each
	// pushing bursts of batches of batchObs observations, then a
	// RetrainNow barrier.
	crowd    bool
	rounds   int
	bursts   int // per round
	burst    int // batches per burst
	batchObs int
	// setups is how many times setup runs per process (setup_s is the
	// median).
	setups int
}

var specs = []spec{
	{
		name:  "office-http",
		train: 150, walkers: 192, intervals: 16, setups: 7,
	},
	{
		name: "venue4096-stream",
		grid: 64, aps: 128, train: 32, samples: 20, walkers: 64, intervals: 24, gate: true, stream: true, setups: 3,
	},
	{
		name: "crowd-ingest",
		grid: 32, aps: 48, train: 32, walkers: 64, intervals: 24, gate: true, stream: true, setups: 3,
		crowd: true, rounds: 4, bursts: 3, burst: 4, batchObs: 16,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// buildDeployment runs the system build for a workload: plan, RF model,
// survey, offline training traces and motion database, and the
// full-AP deployment.
func buildDeployment(sp spec, seed int64) (*core.System, *core.Deployment, error) {
	cfg := core.NewConfig()
	cfg.Seed = seed
	cfg.NumTrainTraces = sp.train
	cfg.NumTestTraces = 1
	if sp.samples > 0 {
		cfg.Survey.SamplesPerLoc = sp.samples
	}
	if sp.grid > 0 {
		o := floorplan.GridOptions{
			Cols: sp.grid, Rows: sp.grid,
			SpacingX: 5, SpacingY: 4, Margin: 3, APs: sp.aps,
		}
		plan, err := floorplan.Grid(o)
		if err != nil {
			return nil, nil, err
		}
		cfg.Plan = plan
		cfg.AdjDist = floorplan.GridAdjDist(o)
	}
	sys, err := core.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	dep, err := sys.Deploy(sys.AllAPs())
	if err != nil {
		return nil, nil, err
	}
	return sys, dep, nil
}

// scan is one WiFi scan uploaded by a phone.
type scan struct {
	T   float64
	RSS []float64
}

// interval is one localization interval's upload: the IMU samples and
// scans recorded in [Start, End), and the tick time End. Truth is the
// walker's true position at End.
type interval struct {
	Start, End float64
	Samples    []sensors.Sample
	Scans      []scan
	Truth      geom.Point
}

// walker is one simulated phone: its user profile and its walk, cut on
// the 3 s interval grid.
type walker struct {
	User      trace.UserProfile
	StepLen   float64
	Intervals []interval
}

// inputs are everything a pass replays, generated from the seed.
type inputs struct {
	walkers []walker
	// obs are the crowdsourced observations of the crowd workload, in
	// push order; batches slices them into upload batches, and
	// roundBatches[r] is the batch range [lo, hi) of round r.
	obs          []motiondb.Observation
	batches      [][]motiondb.Observation
	roundBatches [][2]int
}

// fixes is the number of fix uploads one pass makes.
func (in *inputs) fixes() int {
	n := 0
	for _, w := range in.walkers {
		n += len(w.Intervals)
	}
	return n
}

// makeInputs generates the walks (raw 10 Hz IMU, 2 Hz scans drawn from
// the RF model at the true position) and, for the crowd workload, the
// observation batches. Everything derives from the seed.
func makeInputs(sp spec, sys *core.System, seed int64) (*inputs, error) {
	root := stats.NewRNG(seed).Fork("fixbench")
	sg, err := sensors.NewGenerator(sys.Config.Sensors)
	if err != nil {
		return nil, err
	}
	tcfg := trace.NewConfig()
	// Enough legs to cover the walk; a leg lasts at least ~1 s.
	tcfg.NumLegs = 3*sp.intervals + 4
	tg, err := trace.NewGenerator(sys.Plan, sys.Graph, sg, sys.Config.Motion, tcfg)
	if err != nil {
		return nil, err
	}
	users := trace.DefaultUsers()
	walkRNG := root.Fork("walks")
	scanRNG := root.Fork("scans")
	in := &inputs{}
	for i := 0; i < sp.walkers; i++ {
		u := users[i%len(users)]
		tr := tg.Generate(u, walkRNG)
		w, err := cutWalk(sys, tr, sp.intervals, scanRNG)
		if err != nil {
			return nil, fmt.Errorf("walker %d: %w", i, err)
		}
		w.User = u
		w.StepLen = motion.StepLength(sys.Config.Motion, u.HeightM, u.WeightKg)
		in.walkers = append(in.walkers, w)
	}
	if sp.crowd {
		if err := makeObservations(sp, sys, root.Fork("crowd"), in); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// cutWalk slices a generated walk into n intervals on the 3 s grid that
// starts at its first IMU sample, and draws the interval's scans at the
// walker's true position.
func cutWalk(sys *core.System, tr *trace.Trace, n int, rng *stats.RNG) (walker, error) {
	var all []sensors.Sample
	for _, l := range tr.Legs {
		all = append(all, l.Samples...)
	}
	if len(all) == 0 {
		return walker{}, fmt.Errorf("empty walk")
	}
	origin := all[0].T
	end := tr.Legs[len(tr.Legs)-1].T1
	if origin+float64(n)*intervalSec > end+1e-9 {
		return walker{}, fmt.Errorf("walk lasts %.1f s, need %d intervals", end-origin, n)
	}
	pos := func(t float64) geom.Point {
		i := sort.Search(len(tr.Legs), func(i int) bool { return tr.Legs[i].T1 >= t })
		if i == len(tr.Legs) {
			i--
		}
		l := tr.Legs[i]
		frac := (t - l.T0) / (l.T1 - l.T0)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return sys.Plan.LocPos(l.From).Lerp(sys.Plan.LocPos(l.To), frac)
	}
	var w walker
	next := 0
	start := origin
	for k := 0; k < n; k++ {
		// The grid advances by repeated addition, exactly as the
		// tracker's interval clock does, so interval ends compare equal.
		iv := interval{Start: start, End: start + intervalSec}
		start = iv.End
		for next < len(all) && all[next].T < iv.End {
			iv.Samples = append(iv.Samples, all[next])
			next++
		}
		for t := iv.Start + scanPeriod/2; t < iv.End; t += scanPeriod {
			iv.Scans = append(iv.Scans, scan{T: t, RSS: sys.Model.Sample(pos(t), rng)})
		}
		iv.Truth = pos(iv.End)
		w.Intervals = append(w.Intervals, iv)
	}
	return w, nil
}

// makeObservations runs extra crowdsourced traces through the crowd
// pipeline until there are enough observations, and slices them into
// rounds of bursts of batches: every pass pushes the same number of
// observations whatever the seed.
func makeObservations(sp spec, sys *core.System, rng *stats.RNG, in *inputs) error {
	fdb, err := sys.Survey.BuildDB(fingerprint.Euclidean{}, sys.Model.NumAPs())
	if err != nil {
		return err
	}
	pipe, err := crowd.NewPipeline(sys.Plan, fdb, sys.Survey.MotionEst, sys.Config.Motion)
	if err != nil {
		return err
	}
	sg, err := sensors.NewGenerator(sys.Config.Sensors)
	if err != nil {
		return err
	}
	tg, err := trace.NewGenerator(sys.Plan, sys.Graph, sg, sys.Config.Motion, trace.NewConfig())
	if err != nil {
		return err
	}
	users := trace.DefaultUsers()
	trng, prng := rng.Fork("traces"), rng.Fork("process")
	perRound := sp.bursts * sp.burst
	need := sp.rounds * perRound * sp.batchObs
	for i := 0; len(in.obs) < need; i++ {
		if i == 100*need {
			return fmt.Errorf("crowd pipeline yields too few observations")
		}
		tr := tg.Generate(users[i%len(users)], trng)
		in.obs = append(in.obs, crowd.Observations(pipe.Process(tr, prng))...)
	}
	in.obs = in.obs[:need]
	for i := 0; i < need; i += sp.batchObs {
		in.batches = append(in.batches, in.obs[i:i+sp.batchObs])
	}
	for r := 0; r < sp.rounds; r++ {
		in.roundBatches = append(in.roundBatches, [2]int{r * perRound, (r + 1) * perRound})
	}
	return nil
}

// roundIntervals is the interval range [lo, hi) of every walk that round
// r of a crowd pass replays; non-crowd workloads run one round.
func roundIntervals(sp spec, r int) (int, int) {
	if !sp.crowd {
		return 0, sp.intervals
	}
	per := sp.intervals / sp.rounds
	return r * per, (r + 1) * per
}

// numRounds is the rounds per pass.
func numRounds(sp spec) int {
	if !sp.crowd {
		return 1
	}
	return sp.rounds
}
