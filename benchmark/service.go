package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/serve"
)

// service is an in-process solved behind its real handler on a loopback
// listener, plus the keep-alive client the load generator shares.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	once   sync.Once
}

// startService starts a server the way cmd/solved does.
func startService(cfg serve.Config, clients int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	srv := serve.NewServer(cfg)
	srv.Start()
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the server and closes the listener; it returns once the
// serving goroutine has ended.
func (s *service) stop() {
	s.once.Do(func() {
		s.srv.Drain(2 * time.Second)
		s.hs.Close()
		<-s.served
		s.client.CloseIdleConnections()
	})
}

// reqSample is the client's record of one request.
type reqSample struct {
	shape      shape
	start, end time.Time
	elapsedMs  float64 // the server's own admission-to-terminal time
	err        error   // nil for a correct response
	deadline   bool    // failed/deadline or client timeout: what a wedge looks like
}

func (r reqSample) latency() time.Duration { return r.end.Sub(r.start) }

// post sends one request with the client timeout at twice the request's
// own deadline, so a hung server costs a bounded wait.
func (s *service) post(req serve.SolveRequest) (serve.SolveResponse, error) {
	var resp serve.SolveResponse
	body, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Duration(req.DeadlineMs)*time.Millisecond)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/solve", bytes.NewReader(body))
	if err != nil {
		return resp, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := s.client.Do(hreq)
	if err != nil {
		return resp, err
	}
	defer hresp.Body.Close()
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return resp, fmt.Errorf("decode response: %w", err)
	}
	_, _ = io.Copy(io.Discard, hresp.Body) // drain so the connection is reused
	return resp, nil
}

// solve posts the request for shape sh and checks the answer against refs.
func (s *service) solve(refs map[shape]reference, sh shape, req serve.SolveRequest) reqSample {
	smp := reqSample{shape: sh, start: time.Now()}
	resp, err := s.post(req)
	smp.end = time.Now()
	smp.elapsedMs = resp.ElapsedMs
	switch {
	case err != nil:
		smp.err = err
		smp.deadline = errors.Is(err, context.DeadlineExceeded)
	default:
		smp.err = refs[sh].checkResponse(resp)
		smp.deadline = resp.Status == serve.StatusFailed && resp.Reason == "deadline"
	}
	return smp
}

// loop is one closed-loop load generator: rounds of clients requests,
// sent together, the next round only when every request of this one has
// returned. A caller that fans out nproc solves and waits for them
// behaves so. Which requests meet in the batcher is then fixed by the
// seed; with free-running clients it depends on timing, and on one hot
// shape two of them fall in and out of step with each other's batches.
type loop struct {
	refs    map[shape]reference
	shapes  []shape
	seed    int64
	clients int
	tr      *tracer

	next    int // index of the next request of the sequence
	samples []reqSample
}

// run drives svc until the deadline, for at least one round, and reports
// whether it stopped early because the server wedged: every request of a
// round died on its deadline.
func (l *loop) run(svc *service, until time.Time) (wedged bool) {
	for first := true; first || time.Now().Before(until); first = false {
		round := make([]reqSample, l.clients)
		var wg sync.WaitGroup
		for c := range round {
			wg.Add(1)
			go func() {
				defer wg.Done()
				round[c] = l.request(svc, l.next+c)
			}()
		}
		wg.Wait()
		l.next += l.clients
		l.samples = append(l.samples, round...)
		wedged = true
		for _, smp := range round {
			wedged = wedged && smp.deadline
		}
		if wedged {
			return true
		}
	}
	return false
}

// request sends request i of the sequence and records its spans.
func (l *loop) request(svc *service, i int) reqSample {
	sh := drawShape(l.shapes, l.seed, i)
	id := l.tr.begin("request", -1, i)
	smp := svc.solve(l.refs, sh, solveRequest(sh))
	l.tr.end(id)
	if smp.err == nil {
		// The server reports only how long it held the request; centre
		// that interval inside the client's.
		pad := max(0, smp.latency()-time.Duration(smp.elapsedMs*float64(time.Millisecond))) / 2
		l.tr.add("serve.server", smp.start.Add(pad), smp.end.Add(-pad), id, i)
	}
	return smp
}

// dumpGoroutines writes every goroutine's stack to path.
func dumpGoroutines(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
