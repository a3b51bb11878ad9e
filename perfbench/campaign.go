package main

import (
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/traceio"
)

// The paths of the campaign are the same for every seed: they come from
// catalogSeed. The workload seed drives every random draw of the traffic
// on them (the trace seeds), so runs with different seeds do comparable
// work.
const (
	catalogSeed        = 2005
	seedStreamCatalog  = 0xBE7C4<<32 | 1
	seedStreamScenario = 0xBE7C4<<32 | 2
)

// A campaign round runs campaignTraces traces of campaignEpochs epochs
// on every path.
const (
	campaignTraces = 2
	campaignEpochs = 1
)

// campaignConfig builds the campaign of one round: DefaultScaled phases
// over the paper catalog plus one path per scenario-matrix cell (Reno,
// CUBIC and BBR over the droptail, randomdrop, cellular and rwnd links),
// one trace per path, with as many workers as CPUs.
func campaignConfig(seed int64, small bool) testbed.RunConfig {
	cfg := testbed.DefaultScaled(seed)
	cfg.TracesPerPath = campaignTraces
	cfg.EpochsPerTrace = campaignEpochs
	if small {
		cfg.EpochsPerTrace = 1
	}
	cfg.Parallelism = runtime.NumCPU()
	perEpoch := 25 + cfg.PingDuration + cfg.TransferSec + cfg.EpochGap + cfg.SmallTransferSec + 2
	horizon := perEpoch*float64(cfg.EpochsPerTrace) + 600

	cat := cfg.Catalog
	cat.Seed = sim.DeriveSeed(catalogSeed, seedStreamCatalog)
	cat.Horizon = horizon
	paths := testbed.Catalog(cat)
	cells := testbed.ScenarioCatalog(testbed.ScenarioConfig{
		Seed:    sim.DeriveSeed(catalogSeed, seedStreamScenario),
		Horizon: horizon,
	})
	if small {
		// One catalog path and the droptail row of the matrix: the three
		// senders on one link.
		paths, cells = paths[:1], cells[:3]
	}
	cfg.Paths = append(paths, cells...)
	// Heaviest paths first, so that the light ones fill the workers'
	// last gaps and a round does not end on one long trace.
	sort.SliceStable(cfg.Paths, func(i, j int) bool {
		return cfg.Paths[i].BottleneckBps() > cfg.Paths[j].BottleneckBps()
	})
	return cfg
}

// epochObserver times every trace and epoch of the campaign. Its
// callbacks run on the worker goroutines.
type epochObserver struct {
	campaign.NopObserver

	mu       sync.Mutex
	mark     map[int]time.Time // job index → end of its last epoch
	epochUS  []float64         // wall time of each epoch
	traceMS  []float64         // wall time of each trace
	busy     time.Duration     // Σ trace wall
	epochs   int
	events   uint64
	failures int
}

func newEpochObserver() *epochObserver {
	return &epochObserver{mark: map[int]time.Time{}}
}

func (o *epochObserver) TraceStarted(job campaign.Job, _ int) {
	o.mu.Lock()
	o.mark[job.Index] = time.Now()
	o.mu.Unlock()
}

func (o *epochObserver) EpochDone(job campaign.Job, _ int, _ float64, events uint64) {
	now := time.Now()
	o.mu.Lock()
	o.epochUS = append(o.epochUS, us(now.Sub(o.mark[job.Index])))
	o.mark[job.Index] = now
	o.epochs++
	o.events += events
	o.mu.Unlock()
}

func (o *epochObserver) TraceFinished(_ campaign.Job, err error, _ int, wall time.Duration) {
	o.mu.Lock()

	if err != nil {
		o.failures++
	} else {
		o.traceMS = append(o.traceMS, ms(wall))
		o.busy += wall
	}
	o.mu.Unlock()
}

// campaignRun is one process's campaign set-up: the config, the live
// telemetry and its loopback listener.
type campaignRun struct {
	cfg    testbed.RunConfig
	tel    *obs.Obs
	ln     net.Listener
	srv    *http.Server
	served chan error
	out    string // dataset file
	// corrupt makes the read-back check expect a wrong record.
	corrupt bool

	client  *http.Client
	scrapes []float64 // ms
}

// scrapesPerRound is how many telemetry scrapes follow each round.
const scrapesPerRound = 50

func openCampaign(o options) (*campaignRun, error) {
	c := &campaignRun{
		cfg:     campaignConfig(o.seed, o.small),
		tel:     obs.New(0),
		out:     filepath.Join(o.scratch, "campaign.ndjson.gz"),
		corrupt: o.corrupt,
	}
	c.cfg.Obs = c.tel
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.ln = ln
	c.client = &http.Client{Timeout: time.Minute}
	c.srv = &http.Server{Handler: c.tel.Handler()}
	c.served = make(chan error, 1)
	go func() { c.served <- c.srv.Serve(ln) }()
	return c, nil
}

func (c *campaignRun) close() error {
	c.client.CloseIdleConnections()
	err := c.srv.Close()
	if serr := <-c.served; !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// round is the outcome of one campaign round.
type round struct {
	wall    time.Duration
	mallocs uint64
	sink    time.Duration   // time inside traceio.Writer.WriteTrace
	sent    []testbed.Trace // dropped once checked
	traces  int
	obs     *epochObserver
}

// runRound collects the whole campaign once, streaming every trace into
// a traceio.Writer, and times it from opening the writer to its Close.
func (c *campaignRun) runRound(ctx context.Context) (*round, error) {
	rd := &round{obs: newEpochObserver()}
	cfg := c.cfg
	cfg.Observer = rd.obs
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	w, err := traceio.NewWriter(c.out, cfg.DatasetLabel())
	if err != nil {
		return nil, err
	}
	err = testbed.CollectStream(ctx, cfg, func(tr testbed.Trace) error {
		s := time.Now()
		err := w.WriteTrace(tr)
		rd.sink += time.Since(s)
		rd.sent = append(rd.sent, tr)
		return err
	})
	if err != nil {
		w.Abort()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	rd.wall = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	rd.mallocs = ms1.Mallocs - ms0.Mallocs
	return rd, nil
}

// checkRound reads the dataset back and checks it against the traces the
// sink was handed, then checks every record for physical plausibility.
// It returns the dataset digest: sha256 of the decompressed stream.
func (c *campaignRun) checkRound(rd *round, r *report) (string, error) {
	rdr, err := traceio.NewReader(c.out)
	if err != nil {
		return "", err
	}
	defer rdr.Close()
	var back []testbed.Trace
	for {
		tr, err := rdr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return "", err
		}
		back = append(back, tr)
	}
	epochs := 0
	for _, tr := range rd.sent {
		epochs += len(tr.Records)
	}
	tl, ok := rdr.Trailer()
	r.check(ok && !tl.Partial && tl.Traces == len(rd.sent) && tl.Epochs == epochs,
		"campaign: trailer %+v (present %v), want %d traces and %d epochs", tl, ok, len(rd.sent), epochs)
	r.check(len(back) == len(rd.sent), "campaign: read back %d traces, wrote %d", len(back), len(rd.sent))
	r.check(len(rd.sent) == len(c.cfg.Paths)*c.cfg.TracesPerPath, "campaign: %d traces of %d delivered", len(rd.sent), len(c.cfg.Paths)*c.cfg.TracesPerPath)
	if c.corrupt && len(rd.sent) > 0 && len(rd.sent[0].Records) > 0 {
		// Self-test: expect a throughput the campaign did not measure.
		bad := normalize(rd.sent[0])
		bad.Records[0].Throughput *= 2
		rd.sent[0] = bad
	}
	for i := range back {
		if i < len(rd.sent) {
			r.check(reflect.DeepEqual(normalize(back[i]), normalize(rd.sent[i])), "campaign: trace %d (%s) read back differs from the one written", i, rd.sent[i].Path)
		}
	}

	caps := map[string]float64{}
	for _, pc := range c.cfg.Paths {
		caps[pc.Name] = pc.BottleneckBps()
	}
	for _, tr := range rd.sent {
		for _, rec := range tr.Records {
			checkRecord(r, rec, caps[tr.Path])
		}
	}
	return fileDigest(c.out)
}

// normalize maps an empty Checkpoints slice to nil: the stream omits
// empty slices, so that is the one difference a round trip may make.
func normalize(tr testbed.Trace) testbed.Trace {
	out := tr
	out.Records = append([]testbed.EpochRecord(nil), tr.Records...)
	for i := range out.Records {
		if len(out.Records[i].Checkpoints) == 0 {
			out.Records[i].Checkpoints = nil
		}
	}
	return out
}

func checkRecord(r *report, rec testbed.EpochRecord, capBps float64) {
	where := fmt.Sprintf("campaign: %s trace %d epoch %d", rec.Path, rec.Trace, rec.Epoch)
	r.check(rec.Throughput > 0 && rec.Throughput <= capBps, "%s: throughput %g outside (0, %g]", where, rec.Throughput, capBps)
	for _, p := range []float64{rec.PreLoss, rec.DurLoss, rec.FlowLoss, rec.SmallFlowLoss} {
		r.check(p >= 0 && p <= 1, "%s: loss rate %g outside [0,1]", where, p)
	}
	for _, rtt := range []float64{rec.PreRTT, rec.DurRTT, rec.FlowRTT} {
		r.check(rtt >= 0 && !math.IsInf(rtt, 0) && !math.IsNaN(rtt), "%s: RTT %g not finite", where, rtt)
	}
	r.check(rec.FlowRTT > 0, "%s: flow RTT %g, want > 0", where, rec.FlowRTT)
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if _, err := io.Copy(h, zr); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// campaignSetupReps is how many times the set-up is timed; setup_s is
// the median.
const campaignSetupReps = 25

func runCampaign(ctx context.Context, o options, r *report) error {
	// Set-up: build the path catalog and the scenario matrix, open the
	// telemetry listener. Repeated; the last one is kept.
	var c *campaignRun
	setup := make([]float64, campaignSetupReps)
	for i := range setup {
		if c != nil {
			if err := c.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if c, err = openCampaign(o); err != nil {
			return err
		}
		setup[i] = time.Since(t0).Seconds()
	}
	defer c.close()
	// The inputs are the paths and the seed of the traffic on them.
	spec, err := json.Marshal(c.cfg.Paths)
	if err != nil {
		return err
	}
	r.inputs = digestBytes(fmt.Appendf(spec, "seed %d", c.cfg.Seed))

	// Untraced rounds fill the first half of a traced run and all of an
	// untraced one; the traced half then reads the per-layer figures.
	plain := o.duration
	if o.trace {
		plain = o.duration / 2
	}
	plainRounds, err := c.rounds(ctx, plain, r)
	if err != nil {
		return err
	}
	scrapes := c.scrapes
	var tracedRounds []*round
	if o.trace {
		if tracedRounds, err = c.rounds(ctx, o.duration-plain, r); err != nil {
			return err
		}
	}
	r.check(len(scrapes) > 0, "campaign: no telemetry scrape completed")

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	var eps, tps, allocs, lat []float64
	for _, rd := range plainRounds {
		n := float64(rd.obs.epochs)
		eps = append(eps, n/rd.wall.Seconds())
		tps = append(tps, float64(rd.traces)/rd.wall.Seconds())
		allocs = append(allocs, float64(rd.mallocs)/n)
		lat = append(lat, rd.obs.epochUS...)
	}
	r.e2e["setup_s"] = median(setup)
	r.e2e["epochs_per_s"] = median(eps)
	r.e2e["allocs_per_epoch"] = median(allocs)
	r.e2e["qps"] = median(tps)
	r.e2e["p50_us"] = quantile(lat, 0.50)
	r.e2e["scrape_ms"] = median(scrapes)
	r.e2e["heap_mib"] = float64(mem.HeapAlloc) / (1 << 20)
	fmt.Printf("campaign: %d rounds of %d traces / %d epochs, epoch p99 %.0f us over %d\n",
		len(plainRounds), plainRounds[0].traces, plainRounds[0].obs.epochs, quantile(lat, 0.99), len(lat))

	if !o.trace {
		return nil
	}
	var traced []float64
	for _, rd := range tracedRounds {
		traced = append(traced, float64(rd.obs.epochs)/rd.wall.Seconds())
	}
	r.layer["trace.overhead_pct"] = 100 * (median(eps) - median(traced)) / median(eps)
	roundLayers(tracedRounds, c.cfg.Parallelism, r)
	campaignProbes(c.cfg, o.seed, r)
	return serveLayers(o, r, nil, nil, nil)
}

// rounds runs campaign rounds until d has passed (at least one), checking
// each and requiring every round to reproduce the first one's dataset.
func (c *campaignRun) rounds(ctx context.Context, d time.Duration, r *report) ([]*round, error) {
	var out []*round
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		rd, err := c.runRound(ctx)
		if err != nil {
			return nil, err
		}
		r.attempted += int64(rd.obs.epochs)
		r.failed += int64(rd.obs.failures)
		digest, err := c.checkRound(rd, r)
		if err != nil {
			return nil, err
		}
		if r.digest == "" {
			r.digest, r.events = digest, rd.obs.events
			fmt.Printf("campaign: dataset digest sha256:%s, %d sim events\n", digest, rd.obs.events)
		}
		r.check(digest == r.digest, "campaign: round digest %s differs from the first round's %s", digest, r.digest)
		r.check(rd.obs.events == r.events, "campaign: round processed %d sim events, the first round %d", rd.obs.events, r.events)
		// Scrape the telemetry the round left, as a monitor polling the
		// campaign would.
		for i := 0; i < scrapesPerRound; i++ {
			r.attempted++
			if d, err := scrapeOnce(c.client, "http://"+c.ln.Addr().String()+obs.PathMetrics); err != nil {
				r.failed++
			} else {
				c.scrapes = append(c.scrapes, ms(d))
			}
		}
		rd.traces, rd.sent = len(rd.sent), nil
		out = append(out, rd)
	}
	return out, nil
}
