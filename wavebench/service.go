package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wavemin/internal/dispatch"
	"wavemin/internal/server"
)

// pollInterval is how often a client polls a queued job. There is no
// long-poll endpoint, so every solver latency is quantized to it.
const pollInterval = 5 * time.Millisecond

// service is one in-process wavemind instance served over loopback HTTP,
// plus its dispatch workers on the fleet workload.
type service struct {
	srv     *server.Server
	hs      *http.Server
	url     string
	client  *http.Client
	dataDir string

	workerCancel context.CancelFunc
	workerWG     sync.WaitGroup
}

// startService builds the workload's server: paper defaults, plus ECO
// mode on eco-mix, and on fleet-yield a durable coordinator (DataDir
// under tmpRoot, default batch fsync, no local execution) with two
// in-process workers of one solver goroutine each.
func startService(w workload, tmpRoot string) (*service, error) {
	opts := server.Options{Eco: w.eco}
	var dataDir string
	if w.fleet {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		d, err := os.MkdirTemp(tmpRoot, "data-")
		if err != nil {
			return nil, err
		}
		dataDir = d
		opts.DataDir = d
		opts.Dispatch = &dispatch.Options{LocalExec: false}
	}
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	s := &service{
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
			Timeout:   time.Minute,
		},
		dataDir: dataDir,
	}
	go func() { _ = s.hs.Serve(ln) }()
	if w.fleet {
		ctx, cancel := context.WithCancel(context.Background())
		s.workerCancel = cancel
		for i := 0; i < 2; i++ {
			wk, err := dispatch.NewWorker(dispatch.WorkerOptions{
				Coordinator:   s.url,
				ID:            fmt.Sprintf("bench-w%d", i),
				SolverWorkers: 1,
			})
			if err != nil {
				s.close()
				return nil, err
			}
			s.workerWG.Add(1)
			go func() {
				defer s.workerWG.Done()
				_ = wk.Run(ctx)
			}()
		}
	}
	return s, nil
}

// close drains the server, stops the workers and the listener, waits
// for all of them, and removes the data directory.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if s.workerCancel != nil {
		s.workerCancel()
	}
	s.workerWG.Wait()
	if herr := s.hs.Shutdown(ctx); herr != nil && err == nil {
		err = herr
	}
	s.client.CloseIdleConnections()
	if s.dataDir != "" {
		if rerr := os.RemoveAll(s.dataDir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

func (s *service) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return resp.StatusCode, blob, err
}

// do sends one request and waits for its result: submit, poll the job
// until it is terminal, fetch the result. The returned response carries
// whatever went wrong; the gate decides whether it counts as failed.
func (s *service) do(r request, body []byte) *response {
	out := &response{req: r}
	code, blob, err := s.call(http.MethodPost, "/v1/optimize", body)
	out.submitCode = code
	if err != nil {
		out.err = err
		return out
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return out
	}
	var sub struct {
		JobID    string `json:"jobId"`
		Status   string `json:"status"`
		CacheHit bool   `json:"cacheHit"`
	}
	if err := json.Unmarshal(blob, &sub); err != nil {
		out.err = fmt.Errorf("submit: %v", err)
		return out
	}
	out.view = jobView{JobID: sub.JobID, Status: sub.Status, CacheHit: sub.CacheHit}
	for out.view.Status == "queued" || out.view.Status == "running" {
		time.Sleep(pollInterval)
		code, blob, err := s.call(http.MethodGet, "/v1/jobs/"+sub.JobID, nil)
		if err != nil {
			out.err = err
			return out
		}
		if code != http.StatusOK {
			out.err = &httpError{code: code, what: "poll"}
			return out
		}
		if err := json.Unmarshal(blob, &out.view); err != nil {
			out.err = fmt.Errorf("poll: %v", err)
			return out
		}
	}
	if out.view.Status != "done" {
		return out
	}
	code, blob, err = s.call(http.MethodGet, "/v1/jobs/"+sub.JobID+"/result", nil)
	if err != nil {
		out.err = err
		return out
	}
	if code != http.StatusOK {
		out.err = &httpError{code: code, what: "result"}
		return out
	}
	var res struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(blob, &res); err != nil {
		out.err = fmt.Errorf("result: %v", err)
		return out
	}
	out.result = res.Result
	return out
}

// jobTrace fetches a finished job's telemetry trace (JSONL).
func (s *service) jobTrace(id string) ([]byte, error) {
	code, blob, err := s.call(http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, &httpError{code: code, what: "trace"}
	}
	return blob, nil
}

// newTmpRoot makes the directory durable-tier data lives in during a
// run, under the output directory.
func newTmpRoot(out string) (string, error) {
	dir := filepath.Join(out, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}
