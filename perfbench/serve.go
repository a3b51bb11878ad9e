package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/predsvc"
)

// serveSpec sizes one serving workload.
type serveSpec struct {
	paths    int  // path population
	capacity int  // hot-tier capacity (0: the default, which holds them all)
	spill    bool // back the registry with the spill log
	preload  int  // epochs per path in the restored snapshot
	batch    int  // candidates per /v1/predict-batch; 0: the paper sequence
	// openRate is the offered rate of the open-loop phase in requests per
	// second, fixed near half the closed-loop qps of the seed commit.
	openRate float64
	// scrapeEvery is the interval of the scraper that runs during the
	// load; 0 scrapes once after the load instead.
	scrapeEvery time.Duration
}

var (
	hotSpec = serveSpec{
		paths:       1000,
		preload:     60,
		openRate:    3000,
		scrapeEvery: 250 * time.Millisecond,
	}
	coldSpec = serveSpec{
		paths:    256,
		capacity: 64,
		spill:    true,
		preload:  40,
		batch:    4,
		openRate: 100,
	}
)

// smallSpec shrinks a spec for the self-test.
func smallSpec(s serveSpec) serveSpec {
	s.paths = 64
	if s.capacity > 0 {
		s.capacity = 16
	}
	s.openRate = 400
	return s
}

// liveEpochs is the number of series values per path beyond the preload;
// a path that uses them all starts over at the first one.
const liveEpochs = 128

// historyLimit is predsvc's default HistoryLimit. A spilled session comes
// back exactly only while its lifetime observations stay within it, so
// serve-cold never observes a path past it; see script.refill.
const historyLimit = 128

// serveSetupReps is how many times the serving set-up is timed.
const serveSetupReps = 3

func runServeHot(ctx context.Context, o options, r *report) error {
	return runServe(ctx, o, r, hotSpec)
}

func runServeCold(ctx context.Context, o options, r *report) error {
	return runServe(ctx, o, r, coldSpec)
}

// Request kinds.
const (
	opMeasure = iota
	opPredict
	opObserve
	opBatch
	opKinds
)

var opNames = [opKinds]string{"measure", "predict", "observe", "predict_batch"}

// op is one request of a script.
type op struct {
	kind  uint8
	path  int32
	epoch int32   // series index of a measure or observe
	batch []int32 // candidate paths of a predict-batch
}

// population is a workload's generated inputs: per-path series and the
// request scripts that walk them.
type population struct {
	spec   serveSpec
	names  []string
	series []predsvc.PathSeries
	// next is each path's next series index; live counts the
	// observations a path has absorbed beyond the preload. A path is
	// touched by one script at a time, so the scripts share these.
	next []int32
	live []int32
}

func newPopulation(spec serveSpec, seed int64) *population {
	p := &population{
		spec:   spec,
		series: predsvc.SyntheticSeries(spec.paths, spec.preload+liveEpochs, seed),
		next:   make([]int32, spec.paths),
		live:   make([]int32, spec.paths),
	}
	for i, s := range p.series {
		p.names = append(p.names, s.Path)
		p.next[i] = int32(spec.preload)
	}
	return p
}

// clone returns a population with fresh script state, for the oracle.
func (p *population) clone() *population {
	q := *p
	q.next = make([]int32, len(p.next))
	q.live = make([]int32, len(p.live))
	for i := range q.next {
		q.next[i] = int32(p.spec.preload)
	}
	return &q
}

// takeEpoch returns path's next series index and advances it.
func (p *population) takeEpoch(path int32) int32 {
	e := p.next[path]
	n := e + 1
	if int(n) >= p.spec.preload+liveEpochs {
		n = int32(p.spec.preload)
	}
	p.next[path] = n
	return e
}

// canObserve reports whether path may absorb another observation: on the
// spill store, only while its lifetime observations fit the history.
func (p *population) canObserve(path int32) bool {
	return !p.spec.spill || p.spec.preload+int(p.live[path]) < historyLimit
}

// script yields one client's requests. Every path belongs to one script,
// so each path's request sequence is fixed by the seed whatever the
// interleaving of clients.
type script struct {
	pop   *population
	own   []int32 // the paths this script drives
	rng   *rand.Rand
	queue []op
	cycle int
}

func newScript(pop *population, own []int32, seed int64) *script {
	return &script{pop: pop, own: own, rng: rand.New(rand.NewSource(seed))}
}

// next returns the script's next request.
func (s *script) next() op {
	if len(s.queue) == 0 {
		s.refill()
	}
	o := s.queue[0]
	s.queue = s.queue[1:]
	return o
}

// refill queues one cycle. serve-hot runs the paper's epoch on the next
// path in turn: measure, then predict, then observe. serve-cold asks for
// forecasts on a few distinct candidate paths drawn uniformly, then observes the
// transfer on one of them, chosen by the script.
func (s *script) refill() {
	pop := s.pop
	if pop.spec.batch == 0 {
		path := s.own[s.cycle%len(s.own)]
		s.cycle++
		e := pop.takeEpoch(path)
		pop.live[path]++
		s.queue = append(s.queue[:0],
			op{kind: opMeasure, path: path, epoch: e},
			op{kind: opPredict, path: path},
			op{kind: opObserve, path: path, epoch: e})
		return
	}
	cand := make([]int32, 0, pop.spec.batch)
	for len(cand) < pop.spec.batch {
		p := s.own[s.rng.Intn(len(s.own))]
		if !slices.Contains(cand, p) {
			cand = append(cand, p)
		}
	}
	s.queue = append(s.queue[:0], op{kind: opBatch, batch: cand})
	chosen := cand[s.rng.Intn(len(cand))]
	if pop.canObserve(chosen) {
		pop.live[chosen]++
		s.queue = append(s.queue, op{kind: opObserve, path: chosen, epoch: pop.takeEpoch(chosen)})
	}
}

// ownedBy splits the population's paths into n disjoint sets.
func ownedBy(paths, n int) [][]int32 {
	out := make([][]int32, n)
	for p := 0; p < paths; p++ {
		out[p%n] = append(out[p%n], int32(p))
	}
	return out
}

// client sends script requests over HTTP and checks the status.
type client struct {
	http *http.Client
	base string
	pop  *population
	body bytes.Buffer
}

func (c *client) request(o op) (*http.Request, error) {
	pop := c.pop
	var b []byte
	var method, url string
	switch o.kind {
	case opMeasure:
		in := pop.series[o.path].Inputs[o.epoch]
		b = append(b, `{"path":`...)
		b = strconv.AppendQuote(b, pop.names[o.path])
		b = append(b, `,"rtt_s":`...)
		b = strconv.AppendFloat(b, in.RTT, 'g', -1, 64)
		b = append(b, `,"loss_rate":`...)
		b = strconv.AppendFloat(b, in.LossRate, 'g', -1, 64)
		b = append(b, `,"avail_bw_bps":`...)
		b = strconv.AppendFloat(b, in.AvailBw, 'g', -1, 64)
		b = append(b, '}')
		method, url = http.MethodPost, c.base+"/v1/measure"
	case opObserve:
		b = append(b, `{"path":`...)
		b = strconv.AppendQuote(b, pop.names[o.path])
		b = append(b, `,"throughput_bps":`...)
		b = strconv.AppendFloat(b, pop.series[o.path].Throughputs[o.epoch], 'g', -1, 64)
		b = append(b, '}')
		method, url = http.MethodPost, c.base+"/v1/observe"
	case opPredict:
		method, url = http.MethodGet, c.base+"/v1/predict?path="+pop.names[o.path]
	case opBatch:
		b = append(b, `{"paths":[`...)
		for i, p := range o.batch {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, pop.names[p])
		}
		b = append(b, "]}"...)
		method, url = http.MethodPost, c.base+"/v1/predict-batch"
	}
	var body io.Reader
	if method == http.MethodPost {
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// do sends o and returns the response body, or an error for a transport
// failure or a non-2xx status.
func (c *client) do(o op) ([]byte, error) {
	req, err := c.request(o)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d", opNames[o.kind], resp.StatusCode)
	}
	return c.body.Bytes(), nil
}

// span is one traced request: its kind and client-side duration.
type span struct {
	kind uint8
	d    time.Duration
}

// writeSpans prints the traced closed-loop requests' latency by kind.
func writeSpans(workers []*worker) {
	var byKind [opKinds][]float64
	for _, w := range workers {
		for _, sp := range w.spans {
			byKind[sp.kind] = append(byKind[sp.kind], us(sp.d))
		}
	}
	for k, ds := range byKind {
		if len(ds) > 0 {
			fmt.Printf("trace: closed-loop %s: %d requests, p50 %.1f us, p99 %.1f us\n",
				opNames[k], len(ds), quantile(ds, 0.5), quantile(ds, 0.99))
		}
	}
}

// worker is one closed-loop client: it sends its script's requests one
// at a time, each after the previous reply, and chains the response
// bodies into a digest the oracle recomputes.
type worker struct {
	client
	script *script
	digest maphash.Hash
	// ops counts the requests completed, in script order (the oracle
	// replays these); epochs counts the script cycles completed.
	ops    atomic.Int64
	epochs atomic.Int64
	failed int64
	spans  []span
}

func (w *worker) loop(deadline time.Time, traced bool) {
	for time.Now().Before(deadline) {
		o := w.script.next()
		t0 := time.Now()
		body, err := w.do(o)
		if traced {
			w.spans = append(w.spans, span{kind: o.kind, d: time.Since(t0)})
		}
		w.ops.Add(1)
		if len(w.script.queue) == 0 {
			w.epochs.Add(1)
		}
		if err != nil {
			w.failed++
			continue
		}
		w.digest.Write(body)
	}
}

// forecast reports whether o asks for a forecast: the request a caller
// waits on before it starts a transfer.
func (o op) forecast() bool { return o.kind == opPredict || o.kind == opBatch }

// openOp is one scheduled request of the open-loop phase.
type openOp struct {
	op
	due  time.Duration // send time, from the start of the phase
	deps []int32       // earlier requests on the same paths
}

// openLoop sends a fixed schedule of requests at a constant rate whatever
// the replies: the independent-users model. A request waits for earlier
// requests on its paths, so each path's sequence stays fixed, and its
// latency counts from its scheduled send.
type openLoop struct {
	ops     []openOp
	done    []chan struct{}
	issued  []bool
	hashes  []uint64
	latency []float64 // µs
	late    []float64 // µs the sender ran behind the schedule
	failed  atomic.Int64
	sent    atomic.Int64
}

// openBlock is the number of script cycles the open-loop schedule
// interleaves, so that consecutive requests on one path are far apart.
const openBlock = 32

// newOpenLoop schedules rate × d requests continuing each script.
func newOpenLoop(scripts []*script, rate float64, d time.Duration) *openLoop {
	n := int(rate * d.Seconds())
	l := &openLoop{
		ops:     make([]openOp, 0, n),
		done:    make([]chan struct{}, n),
		issued:  make([]bool, n),
		hashes:  make([]uint64, n),
		latency: make([]float64, n),
		late:    make([]float64, n),
	}
	last := map[int32]int32{}
	dep := func(path int32, deps []int32) []int32 {
		if j, ok := last[path]; ok {
			deps = append(deps, j)
		}
		last[path] = int32(len(l.ops))
		return deps
	}
	add := func(o op) {
		if len(l.ops) == n {
			return
		}
		oo := openOp{op: o, due: time.Duration(float64(len(l.ops)) / rate * float64(time.Second))}
		if o.kind == opBatch {
			for _, p := range o.batch {
				oo.deps = dep(p, oo.deps)
			}
		} else {
			oo.deps = dep(o.path, oo.deps)
		}
		l.ops = append(l.ops, oo)
	}
	for len(l.ops) < n {
		// A block of cycles, the scripts in turn: first every cycle's
		// first request, then every second one, and so on.
		var block [][]op
		for k := 0; k < openBlock; k++ {
			s := scripts[k%len(scripts)]
			s.refill()
			block = append(block, append([]op(nil), s.queue...))
			s.queue = s.queue[:0]
		}
		for step := 0; step < 3; step++ {
			for _, cycle := range block {
				if step < len(cycle) {
					add(cycle[step])
				}
			}
		}
	}
	for i := range l.done {
		l.done[i] = make(chan struct{})
		l.latency[i] = math.Inf(1)
	}
	return l
}

// run releases the schedule to one sender goroutine per client and
// waits for every request to finish. A request released while every
// sender is busy waits for one, and the wait counts in its latency.
// Requests not released by the cutoff are skipped and count as failed.
func (l *openLoop) run(clients []*client, cutoff time.Duration) {
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range work {
				o := &l.ops[i]
				due := start.Add(o.due)
				for _, j := range o.deps {
					<-l.done[j]
				}
				l.late[i] = us(time.Since(due))
				body, err := c.do(o.op)
				l.issued[i] = true
				l.sent.Add(1)
				if err != nil {
					l.failed.Add(1)
				} else {
					l.latency[i] = us(time.Since(due))
					l.hashes[i] = maphash.Bytes(hashSeed, body)
				}
				close(l.done[i])
			}
		}(c)
	}
	for i := range l.ops {
		if time.Since(start) > cutoff {
			for j := i; j < len(l.ops); j++ {
				close(l.done[j])
			}
			break
		}
		waitUntil(start.Add(l.ops[i].due))
		work <- i
	}
	close(work)
	wg.Wait()
	// A failed or skipped request misses every latency limit; it counts
	// with the length of the whole phase.
	miss := us(time.Since(start))
	for i, ok := range l.issued {
		if !ok || math.IsInf(l.latency[i], 1) {
			l.latency[i] = miss
		}
	}
}

// waitUntil returns at t. The runtime's timers wake up to a millisecond
// late, so the wait is a nanosleep system call instead.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// issuedLate returns how late each sent request was sent, in µs.
func (l *openLoop) issuedLate() []float64 {
	var late []float64
	for i, ok := range l.issued {
		if ok {
			late = append(late, l.late[i])
		}
	}
	return late
}

// latencyWindow is the length of the open-loop windows the latency
// percentiles are taken in.
const latencyWindow = time.Second

// windowQuantile returns the median, over latencyWindow windows of send
// time, of each window's q-quantile of forecast latency.
func (l *openLoop) windowQuantile(q float64) float64 {
	var windows [][]float64
	for i := range l.ops {
		if !l.ops[i].forecast() {
			continue
		}
		k := int(l.ops[i].due / latencyWindow)
		for len(windows) <= k {
			windows = append(windows, nil)
		}
		windows[k] = append(windows[k], l.latency[i])
	}
	var qs []float64
	for _, xs := range windows {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

// hashSeed keys every response hash of the process.
var hashSeed = maphash.MakeSeed()

// server is the daemon under test: predsvc.Open + Server.Serve on a
// loopback listener, restored from the workload's snapshot.
type server struct {
	srv    *predsvc.Server
	base   string
	cancel context.CancelFunc
	served chan error
}

func openServer(spec serveSpec, snapFile, spillDir string) (*server, error) {
	cfg := predsvc.Config{Capacity: spec.capacity, Obs: obs.New(0)}
	if spec.spill {
		cfg.SpillDir = spillDir
	}
	srv, err := predsvc.Open(cfg)
	if err != nil {
		return nil, err
	}
	st, err := srv.RestoreSnapshot(snapFile)
	if err == nil && st.Paths != spec.paths {
		err = fmt.Errorf("restored %d paths, want %d (%v)", st.Paths, spec.paths, st.Reason)
	}
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &server{srv: srv}, nil
}

func (s *server) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ctx, ln) }()
	return nil
}

// close stops serving, waits for Serve to return, and closes the store.
func (s *server) close() error {
	var err error
	if s.cancel != nil {
		s.cancel()
		err = <-s.served
	}
	return errors.Join(err, s.srv.Close())
}

// writeSnapshot drives a fresh in-process registry through each path's
// first spec.preload epochs (measure, then observe) and writes its
// snapshot, the state the daemon restores at start.
func writeSnapshot(pop *population, file string) ([]byte, error) {
	reg := predsvc.NewRegistry(predsvc.Config{Capacity: 1 << 30})
	for i, s := range pop.series {
		sess := reg.GetOrCreate(pop.names[i])
		for e := 0; e < pop.spec.preload; e++ {
			sess.SetMeasurement(s.Inputs[e])
			sess.Observe(s.Throughputs[e])
		}
	}
	data, err := predsvc.EncodeSnapshot(reg.Snapshot())
	if err != nil {
		return nil, err
	}
	return data, os.WriteFile(file, data, 0o644)
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func runServe(ctx context.Context, o options, r *report, spec serveSpec) error {
	if o.small {
		spec = smallSpec(spec)
	}
	pop := newPopulation(spec, o.seed)
	snapFile := filepath.Join(o.scratch, "snapshot.json")
	snapData, err := writeSnapshot(pop, snapFile)
	if err != nil {
		return err
	}
	r.inputs = digestBytes(snapData)
	snapData = nil // read back from the file after the load

	// Set-up: Open plus the snapshot restore of the whole population,
	// each time into an empty spill directory. The last one serves.
	var s *server
	setup := make([]float64, serveSetupReps)
	for i := range setup {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		spill := filepath.Join(o.scratch, fmt.Sprintf("spill-%d", i))
		t0 := time.Now()
		if s, err = openServer(spec, snapFile, spill); err != nil {
			return err
		}
		setup[i] = time.Since(t0).Seconds()
	}
	defer s.close()
	if err := s.serve(); err != nil {
		return err
	}
	r.e2e["setup_s"] = median(setup)
	tiers0 := s.srv.Registry().TierStats()

	conns := runtime.NumCPU()
	hc := newHTTPClient(conns)
	defer hc.CloseIdleConnections()
	scrapeClient := newHTTPClient(1)
	defer scrapeClient.CloseIdleConnections()
	metricsURL := s.base + obs.PathMetrics
	var sc *scraper
	if spec.scrapeEvery > 0 {
		sc = startScraper(scrapeClient, metricsURL, spec.scrapeEvery)
	}

	// Closed loop for the first third, open loop for the rest. A traced
	// run splits the closed loop into an untraced and a traced half.
	owned := ownedBy(spec.paths, conns)
	workers := make([]*worker, conns)
	for i := range workers {
		workers[i] = &worker{
			client: client{http: hc, base: s.base, pop: pop},
			script: newScript(pop, owned[i], o.seed+int64(i)),
		}
		workers[i].digest.SetSeed(hashSeed)
	}
	closed := o.duration / 3
	plain := closedLoop(workers, closed, false)
	var traced loopStats
	if o.trace {
		plain = closedLoop(workers, closed/2, false)
		traced = closedLoop(workers, closed-closed/2, true)
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	scripts := make([]*script, conns)
	for i, w := range workers {
		scripts[i] = w.script
	}
	open := newOpenLoop(scripts, spec.openRate, o.duration-closed)
	clients := make([]*client, conns)
	for i := range clients {
		clients[i] = &client{http: hc, base: s.base, pop: pop}
	}
	// The open loop runs without the scraper: its latencies are the
	// daemon's own, not those of a request queued behind a scrape.
	var scrapes []float64
	var scrapeFails int64
	if sc != nil {
		scrapes, scrapeFails = sc.stop()
	}
	open.run(clients, 2*(o.duration-closed))

	tiers := s.srv.Registry().TierStats()
	if sc == nil {
		d, err := scrapeOnce(scrapeClient, metricsURL)
		if err != nil {
			scrapeFails++
		} else {
			scrapes = append(scrapes, ms(d))
		}
	}

	var failed int64
	var attempted int64
	for _, w := range workers {
		attempted += w.ops.Load()
		failed += w.failed
	}
	attempted += int64(len(open.ops)) + int64(len(scrapes)) + scrapeFails
	failed += open.failed.Load() + int64(len(open.ops)) - open.sent.Load() + scrapeFails
	r.attempted += attempted
	r.failed += failed
	r.check(len(scrapes) > 0, "serve: no /metrics scrape completed")

	r.e2e["qps"] = plain.qps
	r.e2e["epochs_per_s"] = plain.eps
	r.e2e["allocs_per_epoch"] = plain.allocs
	r.e2e["p50_us"] = open.windowQuantile(0.50)
	r.layer["http.open_p99_us"] = open.windowQuantile(0.99)
	r.e2e["scrape_ms"] = median(scrapes)
	r.e2e["heap_mib"] = float64(mem.HeapAlloc) / (1 << 20)
	fmt.Printf("serve: %d paths, %d open-loop requests (%d sent), forecast p99 %.0f us, %d scrapes, store %+v\n",
		spec.paths, len(open.ops), open.sent.Load(), r.layer["http.open_p99_us"], len(scrapes), tiers)

	if snapData, err = os.ReadFile(snapFile); err != nil {
		return err
	}
	lookups, err := checkOracle(o, r, pop, snapData, workers, open)
	if err != nil {
		return err
	}
	if !o.trace {
		return nil
	}
	r.layer["trace.overhead_pct"] = 100 * (plain.qps - traced.qps) / plain.qps
	r.layer["gen.late_p99_us"] = quantile(open.issuedLate(), 0.99)
	writeSpans(workers)
	r.layer["store.fault_ratio"] = float64(tiers.Faults-tiers0.Faults) / float64(lookups)
	r.layer["store.spills"] = float64(tiers.Spills - tiers0.Spills)
	if err := serveLayers(o, r, s, pop, snapData); err != nil {
		return err
	}
	return campaignLayers(ctx, o, r)
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	qps, eps, allocs float64
}

// rateWindow is the sampling interval of closed-loop rates.
const rateWindow = 500 * time.Millisecond

// closedLoop runs every worker for d and returns the median over
// rateWindow windows of the requests and epochs completed per second, so
// that a burst of CPU time lost to other tenants of the machine moves
// them less, and the mallocs per epoch over the whole phase, counted over
// the whole process.
func closedLoop(workers []*worker, d time.Duration, traced bool) loopStats {
	type sample struct {
		t           time.Time
		ops, epochs int64
	}
	count := func() sample {
		s := sample{t: time.Now()}
		for _, w := range workers {
			s.ops += w.ops.Load()
			s.epochs += w.epochs.Load()
		}
		return s
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	samples := []sample{count()}
	deadline := samples[0].t.Add(d)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.loop(deadline, traced)
		}(w)
	}
	tick := time.NewTicker(rateWindow)
	for time.Until(deadline) > rateWindow/2 {
		<-tick.C
		samples = append(samples, count())
	}
	tick.Stop()
	wg.Wait()
	runtime.ReadMemStats(&m1)
	last := count()
	if len(samples) < 3 {
		samples = append(samples[:1], last)
	}
	var qps, eps []float64
	for i := 1; i < len(samples); i++ {
		dt := samples[i].t.Sub(samples[i-1].t).Seconds()
		qps = append(qps, float64(samples[i].ops-samples[i-1].ops)/dt)
		eps = append(eps, float64(samples[i].epochs-samples[i-1].epochs)/dt)
	}
	return loopStats{
		qps:    median(qps),
		eps:    median(eps),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(last.epochs-samples[0].epochs),
	}
}

// answer applies o to the in-process registry and returns the body the
// daemon must have answered with.
func answer(reg *predsvc.Registry, pop *population, o op) ([]byte, int, error) {
	var v any
	lookups := 1
	switch o.kind {
	case opMeasure:
		name := pop.names[o.path]
		f := reg.GetOrCreate(name).SetMeasurement(pop.series[o.path].Inputs[o.epoch])
		v = predsvc.MeasureResponse{Path: name, ForecastBps: f}
	case opObserve:
		name := pop.names[o.path]
		n := reg.GetOrCreate(name).Observe(pop.series[o.path].Throughputs[o.epoch])
		v = predsvc.ObserveResponse{Path: name, Observations: n}
	case opPredict:
		sess, ok := reg.Lookup(pop.names[o.path])
		if !ok {
			return nil, 0, fmt.Errorf("oracle: unknown path %s", pop.names[o.path])
		}
		v = sess.Predict()
	case opBatch:
		var resp predsvc.PredictBatchResponse
		for _, p := range o.batch {
			sess, ok := reg.Lookup(pop.names[p])
			if !ok {
				return nil, 0, fmt.Errorf("oracle: unknown path %s", pop.names[p])
			}
			resp.Predictions = append(resp.Predictions, sess.Predict())
		}
		v, lookups = resp, len(o.batch)
	}
	body, err := json.Marshal(v)
	return append(body, '\n'), lookups, err
}

// checkOracle replays every request the daemon answered against an
// in-process registry restored from the same snapshot, and checks that
// each answer is the one the registry gives. Each path's requests come
// from one script, so replaying the scripts one after another gives each
// path the sequence it had under load. It returns the number of session
// lookups the requests made.
func checkOracle(o options, r *report, pop *population, snapData []byte, workers []*worker, open *openLoop) (int, error) {
	snap, err := predsvc.DecodeSnapshot(snapData)
	if err != nil {
		return 0, err
	}
	reg := predsvc.NewRegistry(predsvc.Config{Capacity: 1 << 30})
	if _, err := reg.Restore(snap); err != nil {
		return 0, err
	}
	ref := pop.clone()
	corrupt := o.corrupt
	lookups, answers := 0, 0
	for i, w := range workers {
		s := newScript(ref, w.script.own, o.seed+int64(i))
		var h maphash.Hash
		h.SetSeed(hashSeed)
		n := int(w.ops.Load())
		for k := 0; k < n; k++ {
			body, n, err := answer(reg, ref, s.next())
			if err != nil {
				return 0, err
			}
			if corrupt {
				body, corrupt = append(body[:len(body)-1:len(body)-1], "x\n"...), false
			}
			h.Write(body)
			lookups += n
		}
		answers += n
		r.check(h.Sum64() == w.digest.Sum64(), "serve: closed-loop client %d: the %d answers differ from the in-process registry's", i, n)
	}
	wrong := 0
	for i := range open.ops {
		if !open.issued[i] {
			continue
		}
		body, n, err := answer(reg, ref, open.ops[i].op)
		if err != nil {
			return 0, err
		}
		if corrupt {
			body, corrupt = append(body[:len(body)-1:len(body)-1], "x\n"...), false
		}
		lookups += n
		answers++
		if maphash.Bytes(hashSeed, body) != open.hashes[i] {
			wrong++
		}
	}
	r.check(wrong == 0, "serve: %d open-loop answers differ from the in-process registry's", wrong)
	fmt.Printf("serve: checked %d answers against the in-process registry\n", answers)
	return lookups, nil
}
