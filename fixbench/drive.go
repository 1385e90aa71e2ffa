package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"moloc/internal/fingerprint"
	"moloc/internal/motiondb"
	"moloc/internal/sensors"
	"moloc/internal/wire"
)

// served is one fix as the client decoded it. Candidates are only
// carried by the HTTP API.
type served struct {
	OK         bool
	T          float64
	Loc        int
	Moved      bool
	Mode       string
	Candidates []fingerprint.Candidate
}

// passRec is what one pass observed: every served fix by walker and
// interval, upload→fix latencies, observation burst acks, retrain
// durations, and operation counts.
type passRec struct {
	fixes     [][]served
	fixLatUs  []float64
	ackLatUs  []float64
	retrainMs []float64
	// snaps[r] is the compiled motion index published before round r.
	snaps     []*motiondb.Compiled
	dirty     []int
	obsAcked  int
	attempted int
	failed    int
	wall      time.Duration
	errs      []error
}

func newPassRec(in *inputs) *passRec {
	p := &passRec{fixes: make([][]served, len(in.walkers))}
	for i, w := range in.walkers {
		p.fixes[i] = make([]served, len(w.Intervals))
	}
	return p
}

// batchBody mirrors the server's /batch request.
type batchBody struct {
	Samples []sensors.Sample `json:"samples"`
	Scans   []scanBody       `json:"scans"`
	T       float64          `json:"t"`
}

type scanBody struct {
	T   float64   `json:"t"`
	RSS []float64 `json:"rss"`
}

// fixBody and batchResp mirror the server's /batch response.
type fixBody struct {
	T          float64                 `json:"t"`
	Loc        int                     `json:"loc"`
	Moved      bool                    `json:"moved"`
	Mode       string                  `json:"mode"`
	Candidates []fingerprint.Candidate `json:"candidates"`
}

type batchResp struct {
	Fixes []fixBody `json:"fixes"`
}

// marshalBodies encodes every interval's /batch body once, outside any
// timed phase.
func marshalBodies(in *inputs) ([][][]byte, error) {
	out := make([][][]byte, len(in.walkers))
	for i, w := range in.walkers {
		out[i] = make([][]byte, len(w.Intervals))
		for k, iv := range w.Intervals {
			b := batchBody{Samples: iv.Samples, T: iv.End}
			for _, sc := range iv.Scans {
				b.Scans = append(b.Scans, scanBody{T: sc.T, RSS: sc.RSS})
			}
			data, err := json.Marshal(b)
			if err != nil {
				return nil, err
			}
			out[i][k] = data
		}
	}
	return out, nil
}

// httpClient is one keep-alive connection's client.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// postBatch uploads one interval and decodes its fixes.
func postBatch(c *http.Client, url string, body []byte) ([]fixBody, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("batch: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var br batchResp
	if err := json.Unmarshal(data, &br); err != nil {
		return nil, err
	}
	return br.Fixes, nil
}

// record stores one interval's outcome. A fix upload that failed or did
// not yield exactly one fix is a failed operation.
func (p *passRec) record(mu *sync.Mutex, w, k int, s served, latUs float64, err error) {
	mu.Lock()
	defer mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.errs) < 4 {
			p.errs = append(p.errs, err)
		}
		return
	}
	p.fixes[w][k] = s
	p.fixLatUs = append(p.fixLatUs, latUs)
}

// driveHTTP replays intervals [lo, hi) of every walk over two keep-alive
// connections: client goroutine g owns the walkers with index ≡ g mod 2
// and uploads their intervals round-robin, each phone waiting for its
// fix before its next upload.
func driveHTTP(h *harness, in *inputs, bodies [][][]byte, ids []string, lo, hi int, p *passRec, tr *tracer) {
	base := "http://" + h.httpLn.Addr().String() + "/v1/sessions/"
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := httpClient()
			defer c.CloseIdleConnections()
			for k := lo; k < hi; k++ {
				for w := g; w < len(in.walkers); w += 2 {
					sp := tr.begin("client.http_batch", fixID(w, k))
					t0 := time.Now()
					fixes, err := postBatch(c, base+ids[w]+"/batch", bodies[w][k])
					lat := time.Since(t0)
					tr.end(sp)
					if err == nil && len(fixes) != 1 {
						err = fmt.Errorf("walker %d interval %d: %d fixes, want 1", w, k, len(fixes))
					}
					var s served
					if err == nil {
						f := fixes[0]
						s = served{OK: true, T: f.T, Loc: f.Loc, Moved: f.Moved, Mode: f.Mode, Candidates: f.Candidates}
					}
					p.record(&mu, w, k, s, float64(lat.Nanoseconds())/1e3, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// streamWalk replays intervals [lo, hi) of walker w over one stream
// connection bound to its session: an IMU batch frame, the scan frames,
// and a tick frame per interval, the tick answered with the fix.
func streamWalk(dial func() (*wire.Client, error), in *inputs, w, lo, hi int, mu *sync.Mutex, p *passRec, tr *tracer) {
	c, err := dial()
	if err != nil {
		for k := lo; k < hi; k++ {
			p.record(mu, w, k, served{}, 0, err)
		}
		return
	}
	defer c.Close()
	for k := lo; k < hi; k++ {
		iv := &in.walkers[w].Intervals[k]
		sp := tr.begin("client.stream_interval", fixID(w, k))
		t0 := time.Now()
		err := c.SendIMU(iv.Samples)
		for i := 0; err == nil && i < len(iv.Scans); i++ {
			err = c.SendScan(iv.Scans[i].T, iv.Scans[i].RSS)
		}
		var (
			loc       int
			moved, ok bool
		)
		if err == nil {
			loc, moved, ok, err = c.Tick(iv.End)
		}
		lat := time.Since(t0)
		tr.end(sp)
		if err == nil && !ok {
			err = fmt.Errorf("walker %d interval %d: no fix", w, k)
		}
		// The stream's fix frame carries no mode; a fix over the stream
		// is checked against the moloc pipeline's.
		p.record(mu, w, k, served{OK: true, T: iv.End, Loc: loc, Moved: moved, Mode: "moloc"}, float64(lat.Nanoseconds())/1e3, err)
	}
}

// streamDialer dials walker w's session on addr.
func streamDialer(addr string, ids []string, tag string, opts wire.ClientOptions) func(w int) func() (*wire.Client, error) {
	return func(w int) func() (*wire.Client, error) {
		return func() (*wire.Client, error) {
			o := opts
			o.SessionID = ids[w]
			return wire.DialStream(addr, fmt.Sprintf("%s-%s", tag, ids[w]), o)
		}
	}
}

// driveStream replays intervals [lo, hi) of every walk over the binary
// stream from two client goroutines, each carrying one walk at a time.
func driveStream(dialer func(w int) func() (*wire.Client, error), in *inputs, lo, hi int, p *passRec, tr *tracer) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for w := g; w < len(in.walkers); w += 2 {
				streamWalk(dialer(w), in, w, lo, hi, &mu, p, tr)
			}
		}(g)
	}
	wg.Wait()
}

// pushObservations sends round r's batches over one observation stream
// in bursts: burst batches pipelined, then a wait for the durable ack
// covering them. Each burst's send→ack time is one ack latency.
func pushObservations(c *wire.Client, burst int, in *inputs, r int, mu *sync.Mutex, p *passRec, tr *tracer) {
	rb := in.roundBatches[r]
	for b := rb[0]; b < rb[1]; b += burst {
		s := tr.begin("client.obs_burst", uint64(b))
		t0 := time.Now()
		var err error
		n := 0
		for i := b; i < b+burst && err == nil; i++ {
			err = c.SendObservations(in.batches[i])
			n += len(in.batches[i])
		}
		if err == nil {
			err = c.WaitAcked()
		}
		lat := time.Since(t0)
		tr.end(s)
		mu.Lock()
		p.attempted++
		if err != nil {
			p.failed++
			if len(p.errs) < 4 {
				p.errs = append(p.errs, err)
			}
		} else {
			p.obsAcked += n
			p.ackLatUs = append(p.ackLatUs, float64(lat.Nanoseconds())/1e3)
		}
		mu.Unlock()
	}
}

// fixID numbers one fix (walker, interval) for span correlation.
func fixID(w, k int) uint64 { return uint64(w)<<20 | uint64(k) }

// runPass replays the whole fixed work of one pass against the
// harness's current sessions. Crowd passes run rounds: the observation
// stream and the fix stream work side by side, then a barrier, then
// RetrainNow.
func runPass(h *harness, in *inputs, bodies [][][]byte, ids []string, p *passRec, tr *tracer, passNo int) {
	sp := h.sp
	addr := h.streamLn.Addr().String()
	dialer := streamDialer(addr, ids, fmt.Sprintf("p%d", passNo), wire.ClientOptions{})
	t0 := time.Now()
	if !sp.crowd {
		if sp.stream {
			driveStream(dialer, in, 0, sp.intervals, p, tr)
		} else {
			driveHTTP(h, in, bodies, ids, 0, sp.intervals, p, tr)
		}
		p.wall = time.Since(t0)
		return
	}
	obsc, err := wire.DialStream(addr, fmt.Sprintf("obs-p%d", passNo), wire.ClientOptions{})
	if err != nil {
		p.attempted++
		p.failed++
		p.errs = append(p.errs, err)
		p.wall = time.Since(t0)
		return
	}
	defer obsc.Close()
	for r := 0; r < numRounds(sp); r++ {
		p.snaps = append(p.snaps, h.srv.CompiledSnapshot())
		lo, hi := roundIntervals(sp, r)
		var mu sync.Mutex
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			pushObservations(obsc, sp.burst, in, r, &mu, p, tr)
		}()
		go func() {
			defer wg.Done()
			for w := range in.walkers {
				streamWalk(dialer(w), in, w, lo, hi, &mu, p, tr)
			}
		}()
		wg.Wait()
		s := tr.begin("server.RetrainNow", uint64(r))
		rt0 := time.Now()
		dirty, err := h.srv.RetrainNow()
		p.retrainMs = append(p.retrainMs, float64(time.Since(rt0).Nanoseconds())/1e6)
		tr.end(s)
		p.attempted++
		p.dirty = append(p.dirty, dirty)
		if err != nil {
			p.failed++
			p.errs = append(p.errs, err)
		}
	}
	p.wall = time.Since(t0)
}
