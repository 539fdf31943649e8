package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloudeval/client"
	"cloudeval/internal/core"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/score"
	"cloudeval/internal/server"
	"cloudeval/internal/store"
)

// serve drives an in-process cloudevald over loopback, closed loop: each
// connection sends its next POST /v1/eval when the previous reply has
// arrived, as the scripts and CI jobs that call this API do.
type serve struct {
	base
	conns int

	answers []string
	trace   []request
	got     []float64 // six scores per request of a rep, reused
	reqErr  []error   // per request of a rep, reused
	lat     [][]int64 // per connection, ns, pooled over the timed reps
	out     outputs
	seq     int
}

func (w *serve) opsPerUnit() int { return len(w.trace) }
func (w *serve) spansPerOp() int { return 8 }

func (w *serve) setup(traced bool) error {
	w.out.width = 6
	w.answers = w.c.answers()
	w.trace = w.c.requestTrace(w.answers, w.seed)
	opsPerRep := w.units * len(w.trace)
	w.got = make([]float64, 6*opsPerRep)
	w.reqErr = make([]error, opsPerRep)
	w.lat = make([][]int64, w.conns)
	for i := range w.lat {
		// Room for 16 reps were one connection to carry them all, so
		// that no append grows the array inside a timed window.
		w.lat[i] = make([]int64, 0, 16*opsPerRep)
	}
	if traced {
		byPair := w.pairInfos(w.answers)
		w.info = make([]opInfo, len(w.trace))
		for i, rq := range w.trace {
			w.info[i] = byPair[rq.pair]
		}
	}
	return nil
}

// daemon is one fresh cloudevald: empty store, engine, dispatcher,
// server, loopback listener.
type daemon struct {
	st   *store.Store
	eng  *engine.Engine
	disp *inference.Dispatcher
	srv  *server.Server
	http *http.Server
	base string
	path string
	done chan error
}

func (w *serve) startDaemon(tr *tracer) (*daemon, error) {
	w.seq++
	d := &daemon{path: filepath.Join(w.dir, fmt.Sprintf("serve-%d", w.seq)), done: make(chan error, 1)}
	if err := os.MkdirAll(d.path, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(d.path, "eval.store"))
	if err != nil {
		return nil, err
	}
	d.st = st
	eng, disp := newEngineAndDispatcher(w.c.models, st, tr)
	d.eng, d.disp = eng, disp
	d.srv = server.NewWithConfig(core.NewVia(eng, disp), d.path, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	handler := d.srv.Handler()
	if tr != nil {
		handler = &tracedHandler{handler, tr}
	}
	d.http = &http.Server{Handler: handler}
	d.base = "http://" + ln.Addr().String()
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down, waits for its listener goroutine, closes
// the store and removes its files; it returns the first latched error.
func (d *daemon) stop(cnt *counters) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	storeCounters(d.st, cnt)
	t0 := time.Now()
	err = errors.Join(err, d.st.Close())
	cnt.closeMs = ms(time.Since(t0))
	cnt.bytesOnDisk = removeStore(filepath.Join(d.path, "eval.store"))
	os.RemoveAll(d.path)
	return err
}

const opHeader = "X-Bench-Op"

type opCtxKey struct{}

// opTransport carries the op id of a traced request to the daemon in a
// header, so the handler's span can name its op.
type opTransport struct{ next http.RoundTripper }

func (t opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if op, ok := r.Context().Value(opCtxKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.Itoa(op))
	}
	return t.next.RoundTrip(r)
}

// tracedHandler records one server.handler span per request around the
// daemon's whole handler chain.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, err := strconv.Atoi(r.Header.Get(opHeader))
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	s := h.tr.begin(lHandler, int32(op), -1)
	h.next.ServeHTTP(w, r)
	h.tr.end(s)
}

// session is one fresh daemon and the connections that will drive it,
// dialled and idle.
type session struct {
	d          *daemon
	clients    []*client.Client
	transports []*http.Transport
}

func (w *serve) openSession(tr *tracer) (*session, error) {
	d, err := w.startDaemon(tr)
	if err != nil {
		return nil, err
	}
	s := &session{d: d}
	for i := 0; i < w.conns; i++ {
		t := &http.Transport{MaxIdleConnsPerHost: 1}
		var rt http.RoundTripper = t
		if tr != nil {
			rt = opTransport{rt}
		}
		cl := client.New(d.base, client.WithHTTPClient(&http.Client{Transport: rt}))
		s.clients, s.transports = append(s.clients, cl), append(s.transports, t)
		// The connection is dialled here, outside the timed window.
		if err := cl.Healthz(context.Background()); err != nil {
			s.close(&counters{})
			return nil, fmt.Errorf("daemon not healthy: %w", err)
		}
	}
	return s, nil
}

func (s *session) close(cnt *counters) error {
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
	return s.d.stop(cnt)
}

// drive sends the whole trace to s, closed loop, one request in flight
// per connection; ops are numbered from opBase.
func (w *serve) drive(s *session, tr *tracer, opBase int, clientSpans []int32) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w.conns)
	for c := 0; c < w.conns; c++ {
		go func(c int) {
			defer wg.Done()
			cl, lat := s.clients[c], w.lat[c]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.trace) {
					break
				}
				op := opBase + i
				ctx, span := context.Background(), int32(-1)
				if tr != nil {
					ctx = context.WithValue(ctx, opCtxKey{}, op)
					span = tr.begin(lClient, int32(op), -1)
					clientSpans[op] = span
				}
				t0 := time.Now()
				resp, err := cl.Eval(ctx, w.trace[i].body)
				lat = append(lat, int64(time.Since(t0)))
				tr.end(span)
				w.reqErr[op] = err
				for k, name := range score.Metrics {
					w.got[6*op+k] = resp.Scores[name]
				}
			}
			w.lat[c] = lat
		}(c)
	}
	wg.Wait()
}

// rep sends the whole trace to each of daemons fresh daemons, one after
// another.
func (w *serve) rep(m *meter, tr *tracer, daemons int) error {
	sessions := make([]*session, daemons)
	for k := range sessions {
		s, err := w.openSession(tr)
		if err != nil {
			for _, open := range sessions[:k] {
				open.close(&counters{})
			}
			return err
		}
		sessions[k] = s
	}
	n := len(w.trace)
	var clientSpans []int32
	if tr != nil {
		clientSpans = make([]int32, daemons*n)
	}

	m.start()
	for k, s := range sessions {
		w.drive(s, tr, k*n, clientSpans)
	}
	m.stop(daemons * n)

	for k, s := range sessions {
		w.last = counters{eng: s.d.eng.Stats(), gen: s.d.disp.Stats()}
		if err := errors.Join(s.d.disp.Err(), s.close(&w.last)); err != nil {
			w.fail(n, "daemon latched an error: %v", err)
		}
		if e := w.last.eng; e.Executed+e.CacheHits != int64(n) || e.StoreHits != 0 {
			w.fail(n, "executed %d + memo hits %d != %d requests, or store hits %d != 0",
				e.Executed, e.CacheHits, n, e.StoreHits)
		}
		w.out.record(w.got[6*k*n : 6*(k+1)*n])
	}
	for op, err := range w.reqErr[:daemons*n] {
		if err != nil {
			w.fail(1, "request %d: %v", op%n, err)
		}
	}
	if tr != nil {
		// Handlers learn their client span only now: the op id crossed
		// the socket, the span index did not.
		for i, s := range tr.recorded() {
			if s.layer == lHandler {
				tr.spans[i].parent = clientSpans[s.op]
			}
		}
	}
	return nil
}

// verify scores every request's answer directly (the literal one, or
// the zoo's from set-up for a `model` request) on a fresh engine.
func (w *serve) verify() int {
	want := make([]float64, 6*len(w.trace))
	eng := engine.New()
	eng.ForEach(len(w.trace), func(i int) {
		rq := w.trace[i]
		s := score.ScoreAnswerWith(eng, w.c.problems[w.c.pairs[rq.pair].problem], w.answers[rq.pair])
		for k, name := range score.Metrics {
			want[6*i+k] = s.Metric(name)
		}
	})
	return w.failed + w.out.failedOps(want)
}

// latencies pools every connection's samples, sorted.
func (w *serve) latencies() []int64 {
	var all []int64
	for _, l := range w.lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// discardWarmup forgets the samples so far (the warm-up's).
func (w *serve) discardWarmup() {
	for i := range w.lat {
		w.lat[i] = w.lat[i][:0]
	}
}

// micro sends the head of the trace one request at a time, once
// straight into the handler with a recorder and once over loopback:
// the difference is what the socket, net/http's server loop and the
// client's own JSON cost.
func (w *serve) micro() (map[string]float64, error) {
	n := min(2000, len(w.trace))
	bodies := make([][]byte, n)
	for i := range bodies {
		b, err := json.Marshal(w.trace[i].body)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	d, err := w.startDaemon(nil)
	if err != nil {
		return nil, err
	}
	handler := d.srv.Handler()
	t0 := time.Now()
	for _, b := range bodies {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			d.stop(&counters{})
			return nil, fmt.Errorf("handler answered %d", rec.Code)
		}
	}
	direct := time.Since(t0)
	if err := d.stop(&counters{}); err != nil {
		return nil, err
	}

	if d, err = w.startDaemon(nil); err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	cl := client.New(d.base, client.WithHTTPClient(&http.Client{Transport: transport}))
	err = cl.Healthz(context.Background())
	t0 = time.Now()
	for i := 0; i < n && err == nil; i++ {
		_, err = cl.Eval(context.Background(), w.trace[i].body)
	}
	loopback := time.Since(t0)
	transport.CloseIdleConnections()
	if err = errors.Join(err, d.stop(&counters{})); err != nil {
		return nil, err
	}
	return map[string]float64{
		"server.eval_handler_us_per_op": float64(direct) / float64(n) / 1e3,
		"client.eval_us_per_op":         float64(loopback) / float64(n) / 1e3,
	}, nil
}
