package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"moloc/internal/core"
	"moloc/internal/motiondb"
	"moloc/internal/server"
	"moloc/internal/wal"
)

// farFuture keeps the server's timer-driven work (TTL sweep, background
// retrain) out of every run: retraining happens only where the workload
// calls RetrainNow.
const farFuture = 24 * time.Hour

// harness is one in-process server on loopback listeners: Handler()
// over HTTP and ServeStreams for the binary stream.
type harness struct {
	sp      spec
	sys     *core.System
	dep     *core.Deployment
	srv     *server.Server
	handler http.Handler

	httpLn   net.Listener
	httpSrv  *http.Server
	streamLn net.Listener
	dataDir  string
	wg       sync.WaitGroup
}

// serverOptions are the serving options every workload uses. The crowd
// workload adds durability under dataDir with fsync always.
func serverOptions(sp spec, sys *core.System, dataDir string) server.Options {
	o := server.Options{
		SessionTTL:      farFuture,
		SweepInterval:   farFuture,
		RetrainInterval: farFuture,
		MaxSessions:     1 << 20,
		Gate:            sp.gate,
		Workers:         2,
	}
	if sp.crowd {
		o.TrainGraph = sys.Graph
		o.DataDir = dataDir
		o.FsyncPolicy = wal.SyncAlways
		o.ObsQueueCap = 1 << 20
	}
	return o
}

// newHarness constructs the server and starts its listeners. Start is
// not called: no background loop runs.
func newHarness(sp spec, sys *core.System, dep *core.Deployment, dataDir string) (*harness, error) {
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}
	srv, err := server.NewWithOptions(sys.Plan, dep.FDB, len(dep.APIdx), sys.MDB,
		sys.Config.Motion, serverOptions(sp, sys, dataDir))
	if err != nil {
		return nil, err
	}
	if st := srv.ServingState(); st != "ok" {
		srv.Close()
		return nil, fmt.Errorf("server boots in state %q", st)
	}
	h := &harness{sp: sp, sys: sys, dep: dep, srv: srv, handler: srv.Handler(), dataDir: dataDir}
	if h.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	if h.streamLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		//lint:ignore errdrop the listener never served; the Listen error is the one to report
		_ = h.httpLn.Close()
		srv.Close()
		return nil, err
	}
	h.httpSrv = &http.Server{Handler: h.handler}
	h.wg.Add(2)
	go func() {
		defer h.wg.Done()
		//lint:ignore errdrop Serve returns ErrServerClosed once close shuts it; a failed upload shows as a failed operation
		_ = h.httpSrv.Serve(h.httpLn)
	}()
	go func() {
		defer h.wg.Done()
		//lint:ignore errdrop ServeStreams returns once the server closes; a failed stream shows as a failed operation
		_ = h.srv.ServeStreams(h.streamLn)
	}()
	return h, nil
}

// close stops both listeners and the server and waits for every
// goroutine it started.
func (h *harness) close() {
	//lint:ignore errdrop teardown after the pass; every result is already recorded
	_ = h.httpSrv.Close()
	h.srv.Close()
	h.wg.Wait()
	if h.dataDir != "" {
		//lint:ignore errdrop a leftover data directory under the scratch directory changes no result
		_ = os.RemoveAll(h.dataDir)
	}
}

// createReq mirrors the server's session-creation body.
type createReq struct {
	HeightM  float64 `json:"height_m"`
	WeightKg float64 `json:"weight_kg"`
}

// createSessions opens one session per walker through Handler() in
// process and returns the session IDs.
func (h *harness) createSessions(ws []walker) ([]string, error) {
	ids := make([]string, len(ws))
	for i, w := range ws {
		body, err := json.Marshal(createReq{HeightM: w.User.HeightM, WeightKg: w.User.WeightKg})
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		h.handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
		if rec.Code != http.StatusCreated {
			return nil, fmt.Errorf("create session: status %d: %s", rec.Code, rec.Body.String())
		}
		var resp struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return nil, err
		}
		ids[i] = resp.SessionID
	}
	return ids, nil
}

// deleteSessions removes a pass's sessions so every pass starts from
// the same registry size.
func (h *harness) deleteSessions(ids []string) error {
	for _, id := range ids {
		rec := httptest.NewRecorder()
		h.handler.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/sessions/"+id, nil))
		if rec.Code != http.StatusNoContent {
			return fmt.Errorf("delete session %s: status %d", id, rec.Code)
		}
	}
	return nil
}

// observationsIn reads the server's count of observations accepted into
// the retrain queue.
func (h *harness) observationsIn() int64 {
	return h.srv.Metrics().Snapshot().Counters["observations_in"]
}

// publishedState reads the training state the server last
// checkpointed: the DB.Encode bytes of its published motion database
// and its builder's accumulated samples.
func (h *harness) publishedState() (db, builder []byte, err error) {
	payload, _, _, err := latestCheckpoint(h.dataDir)
	if err != nil {
		return nil, nil, err
	}
	var env struct {
		DB      json.RawMessage `json:"db"`
		Builder json.RawMessage `json:"builder"`
	}
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, nil, err
	}
	if len(env.DB) == 0 {
		return nil, nil, errors.New("checkpoint carries no motion database")
	}
	mdb, err := motiondb.Decode(env.DB)
	if err != nil {
		return nil, nil, err
	}
	if db, err = mdb.Encode(); err != nil {
		return nil, nil, err
	}
	return db, env.Builder, nil
}
