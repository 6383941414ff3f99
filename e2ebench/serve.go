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
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parc751/internal/parcserve"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
)

// opHeader carries the op index from client to server, so the handler
// span can name its client span. Untraced runs send it too, so both
// runs put the same bytes on the wire.
const opHeader = "X-Bench-Op"

// spanHandler wraps Server.ServeHTTP in a "handler" span while on.
type spanHandler struct {
	next http.Handler
	rec  *recorder
	on   atomic.Bool
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	op, err := strconv.Atoi(r.Header.Get(opHeader))
	if err != nil {
		op = -1
	}
	s := span{Name: "handler", Op: op, Parent: rootID(op), Start: h.rec.now()}
	h.next.ServeHTTP(w, r)
	s.End = h.rec.now()
	h.rec.add(s)
}

// serveEnv is one in-process server on a loopback listener plus the
// benchmark's clients, each with its own single-connection transport.
type serveEnv struct {
	srv     *parcserve.Server
	hs      *http.Server
	served  chan error
	url     string
	clients []*http.Client
	dials   atomic.Int64
	wrap    *spanHandler // nil in untraced runs
}

func startServe(clients int, rec *recorder, traced bool) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{srv: parcserve.NewServer(parcserve.DefaultConfig()), served: make(chan error, 1),
		url: "http://" + ln.Addr().String()}
	var h http.Handler = e.srv
	if traced {
		e.wrap = &spanHandler{next: e.srv, rec: rec}
		h = e.wrap
	}
	e.hs = &http.Server{Handler: h}
	go func() { e.served <- e.hs.Serve(ln) }()
	var d net.Dialer
	for c := 0; c < clients; c++ {
		e.clients = append(e.clients, &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				e.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return e, nil
}

// close stops intake, drains the server and waits for Serve to return.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := e.srv.Drain(10 * time.Second); err == nil {
		err = derr
	}
	return err
}

// do sends one job and returns the checksum of a 200 answer.
func (e *serveEnv) do(c *http.Client, q jobReq, op int) (uint64, error) {
	req, err := http.NewRequest(http.MethodPost, e.url+"/jobs/"+q.Kind, bytes.NewReader(q.Body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(op))
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out struct {
		Checksum uint64 `json:"checksum"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, err
	}
	return out.Checksum, nil
}

// failures collects failed ops; the first few are kept for the report.
type failures struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (f *failures) add(op int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf("op %d: %v", op, err))
	}
}

// runList drives list through the clients in a closed loop: each client
// takes the next unsent request, waits for its answer, checks it against
// ref, and only then takes another. Op numbers start at opBase; lat[i]
// gets request i's latency in ms. traced adds a "client" span per op.
func (e *serveEnv) runList(list []jobReq, opBase int, ref map[reqKey]uint64, lat []float64,
	rec *recorder, traced bool, fail *failures) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range e.clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) {
					return
				}
				op := opBase + i
				start := rec.now()
				sum, err := e.do(cl, list[i], op)
				end := rec.now()
				if err == nil && sum != ref[list[i].key()] {
					err = fmt.Errorf("%s seed %d n %d: checksum %d, reference %d",
						list[i].Kind, list[i].Seed, list[i].N, sum, ref[list[i].key()])
				}
				if err != nil {
					fail.add(op, err)
				}
				if lat != nil {
					lat[i] = float64(end-start) / 1e6
				}
				if traced {
					rec.add(span{ID: rootID(op), Name: "client", Op: op, Start: start, End: end})
				}
			}
		}(cl)
	}
	wg.Wait()
}

// A run sets up setupsBefore times before its measured phase (the last
// of those set-ups is the one measured) and setupsAfter times after it,
// so the set-up samples span the run's host conditions.
const (
	setupsBefore = 2
	setupsAfter  = 2
)

// runServe runs serve-mix or serve-small.
func runServe(cfg config, rep *report) error {
	plan, err := planServe(cfg.workload, cfg.seed, cfg.clients, cfg.seconds)
	if err != nil {
		return err
	}
	rec := newRecorder(len(plan.reqs))
	fail := &failures{}
	var env *serveEnv
	var ref map[reqKey]uint64
	// setUp starts a server, runs the reference pass (which must repeat
	// the previous set-up's) and warms the connections up.
	setUp := func() error {
		if env, err = startServe(cfg.clients, rec, cfg.trace); err != nil {
			return err
		}
		again, err := referencePass(plan.warmup, plan.reqs)
		if err != nil {
			return err
		}
		for k, v := range again {
			if old, seen := ref[k]; seen && old != v {
				fail.add(-1, fmt.Errorf("reference pass not deterministic for %v", k))
			}
		}
		ref = again
		env.runList(plan.warmup, -len(plan.warmup), ref, nil, rec, false, fail)
		return nil
	}
	for r := 0; r < setupsBefore+setupsAfter; r++ {
		if r == setupsBefore {
			if err := measureServe(cfg, rep, plan, env, ref, rec, fail); err != nil {
				return err
			}
		}
		if env != nil {
			if err := env.close(); err != nil {
				return fmt.Errorf("closing a set-up: %w", err)
			}
		}
		if err := rep.m.timeSetup(setUp); err != nil {
			return err
		}
	}
	rep.failed, rep.failures = fail.n, fail.first
	return env.close()
}

// measureServe runs the measured phase on env and, for a traced run,
// derives the per-layer metrics.
func measureServe(cfg config, rep *report, plan *reqPlan, env *serveEnv, ref map[reqKey]uint64,
	rec *recorder, fail *failures) error {
	var (
		sc          schedCounts
		ms0, ms1    runtime.MemStats
		allocB, gcs uint64
		admitted    int64
		rejected    int64
		batches     parcserve.BatchStats
		tracedOps   []int
		tracedLat   []float64
		plainLat    []float64
		waitingMax  atomic.Int64
	)
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	if cfg.trace {
		// waiting_max: the admission queue's occupancy, sampled through
		// Statz while a traced segment runs.
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					if env.wrap.on.Load() {
						if w := env.srv.Statz().Admission.Waiting; w > waitingMax.Load() {
							waitingMax.Store(w)
						}
					}
				}
			}
		}()
	}

	rep.m.lat = make([]float64, len(plan.reqs))
	ticks0 := readCPUTicks()
	for seg := 0; seg < plan.segments; seg++ {
		// A traced run alternates untraced and traced segments; the
		// untraced ones are the base of trace.overhead_pct.
		traced := cfg.trace && seg%2 == 1
		var before parcserve.Statz
		if traced {
			before = env.srv.Statz()
			runtime.ReadMemStats(&ms0)
			env.wrap.on.Store(true)
		}
		rep.m.startSegment()
		list := plan.segment(seg)
		lat := rep.m.lat[seg*plan.perSeg : (seg+1)*plan.perSeg]
		env.runList(list, seg*plan.perSeg, ref, lat, rec, traced, fail)
		rep.m.addSegment(len(list))
		if traced {
			env.wrap.on.Store(false)
			runtime.ReadMemStats(&ms1)
			after := env.srv.Statz()
			sc.addDelta(countsOf(before.Sched), countsOf(after.Sched))
			allocB += ms1.TotalAlloc - ms0.TotalAlloc
			gcs += uint64(ms1.NumGC - ms0.NumGC)
			admitted += after.Admission.Admitted - before.Admission.Admitted
			rejected += after.Admission.Rejected - before.Admission.Rejected
			b0, b1 := before.Batch["sort"], after.Batch["sort"]
			batches.Batches += b1.Batches - b0.Batches
			batches.Items += b1.Items - b0.Items
			batches.TimerFlushes += b1.TimerFlushes - b0.TimerFlushes
			for i := range list {
				tracedOps = append(tracedOps, seg*plan.perSeg+i)
			}
			tracedLat = append(tracedLat, lat...)
		} else {
			plainLat = append(plainLat, lat...)
		}
	}
	close(stopSampler)
	samplerDone.Wait()
	rep.stamp.StealPct = stealPct(ticks0, readCPUTicks())
	rep.attempted = len(plan.reqs)
	if d := int(env.dials.Load()); d > cfg.clients {
		fail.add(-1, fmt.Errorf("connection audit: %d dials for %d clients", d, cfg.clients))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("connections: %d dials for %d clients (limit nproc=%d)",
		env.dials.Load(), cfg.clients, runtime.NumCPU()))
	if !cfg.trace {
		return nil
	}

	// Replay: the traced ops' job bodies again, as direct calls (gen,
	// then compute) from the same number of callers on a ptask runtime
	// of the server's size. Handler minus body is the serving overhead.
	out := rep.layer
	var regions regionTally
	var regionMu sync.Mutex
	rt := ptask.NewRuntime(env.srv.Runtime().Workers())
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(tracedOps) {
					return
				}
				op := tracedOps[i]
				q := plan.reqs[op]
				b := jobBodies[q.Kind]
				parent := rec.nextID.Add(1)
				start := rec.now()
				// Like the server, the body runs as one ptask task, so its
				// inner decomposition joins by helping on a worker.
				t := ptask.Run(rt, func() (uint64, error) {
					var in any
					rec.timed("gen."+q.Kind, op, parent, func() { in = b.gen(q.Seed, q.N) })
					var sum uint64
					var err error
					rec.timed("compute."+q.Kind, op, parent, func() {
						sum, err = b.par(rt, in, func(st pyjama.RegionStats) {
							regionMu.Lock()
							regions.add(st)
							regionMu.Unlock()
						})
					})
					return sum, err
				})
				sum, err := t.Result()
				rec.add(span{ID: parent, Name: "replay", Op: op, Start: start, End: rec.now()})
				if err == nil && sum != ref[q.key()] {
					err = fmt.Errorf("replay %s seed %d: checksum %d, reference %d", q.Kind, q.Seed, sum, ref[q.key()])
				}
				if err != nil {
					fail.add(op, err)
				}
			}
		}()
	}
	wg.Wait()
	rt.Shutdown()

	// Per-layer figures from the spans.
	handler := map[int]span{}
	for _, s := range rec.byName("handler") {
		handler[s.Op] = s
	}
	body := map[int]float64{}
	for _, k := range kindNames {
		var gen, comp []float64
		for _, s := range rec.byName("gen." + k) {
			gen = append(gen, s.ms())
			body[s.Op] += s.ms()
		}
		for _, s := range rec.byName("compute." + k) {
			comp = append(comp, s.ms())
			body[s.Op] += s.ms()
		}
		out["workload.gen_ms."+k] = zeroNaN(median(gen))
		out["body.compute_ms."+k] = zeroNaN(median(comp))
	}
	var hms, transport, overhead []float64
	for _, c := range rec.byName("client") {
		h, ok := handler[c.Op]
		if !ok {
			continue
		}
		hms = append(hms, h.ms())
		transport = append(transport, float64(selfTime(c.interval(), []interval{h.interval()}))/1e6)
		overhead = append(overhead, h.ms()-body[c.Op])
	}
	out["parcserve.handler_p50_ms"] = percentile(sorted(hms), 0.5)
	out["parcserve.transport_p50_ms"] = percentile(sorted(transport), 0.5)
	out["parcserve.overhead_p50_ms"] = percentile(sorted(overhead), 0.5)
	out["parcserve.batch_mean_size"] = ratio(float64(batches.Items), float64(batches.Batches))
	out["parcserve.batch_timer_flush_ratio"] = ratio(float64(batches.TimerFlushes), float64(batches.Batches))
	out["parcserve.admitted"] = float64(admitted)
	out["parcserve.rejected"] = float64(rejected)
	out["parcserve.waiting_max"] = float64(waitingMax.Load())
	sc.into(out, len(tracedOps))
	memInto(out, allocB, gcs, len(tracedOps))
	out["trace.overhead_pct"] = overheadPct(tracedLat, plainLat)
	probe := pyjamaProbes(rec, out)
	if regions.regions == 0 {
		regions = probe
	}
	regions.into(out)
	rep.rec = rec
	return nil
}

func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
