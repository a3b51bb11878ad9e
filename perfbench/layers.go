package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/availbw"
	"repro/internal/iperf"
	"repro/internal/netem"
	"repro/internal/predsvc"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/testbed"
)

// The per-layer metrics come from the benchmark's own calls into each
// layer's public functions. Each traced run prints all of them: a layer
// the workload drives is probed with the workload's inputs, the other
// pipeline's layers with standard inputs made from the same seed.

// probeSpec is the population the serving probes use when the workload
// has no daemon of its own: a quarter of it fits in memory.
var probeSpec = serveSpec{paths: 256, capacity: 64, spill: true, preload: 60}

// probeReps is the number of calls timed per serving probe.
const probeReps = 1000

// Flow ids of the campaign probes, apart from any ambient traffic.
const (
	flowProbeTransfer netem.FlowID = 1
	flowProbePing     netem.FlowID = 2
	flowProbeChirp    netem.FlowID = 3
)

// roundLayers reads the campaign layers off traced campaign rounds.
func roundLayers(rounds []*round, workers int, r *report) {
	var wall, busy, sink time.Duration
	var traceMS []float64
	var epochs, traces int
	var events uint64
	for _, rd := range rounds {
		wall += rd.wall
		busy += rd.obs.busy
		sink += rd.sink
		traceMS = append(traceMS, rd.obs.traceMS...)
		epochs += rd.obs.epochs
		traces += rd.traces
		events += rd.obs.events
	}
	r.layer["campaign.busy_ratio"] = busy.Seconds() / (wall.Seconds() * float64(workers))
	r.layer["testbed.trace_ms.p50"] = median(traceMS)
	r.layer["testbed.trace_ms.max"] = maxOf(traceMS)
	r.layer["sim.events_per_epoch"] = float64(events) / float64(epochs)
	r.layer["sim.ns_per_event"] = float64(busy.Nanoseconds()) / float64(events)
	r.layer["traceio.write_ms_per_trace"] = ms(sink) / float64(traces)
}

// campaignLayers runs one traced campaign round and the campaign probes,
// for a workload that does not run the campaign itself.
func campaignLayers(ctx context.Context, o options, r *report) error {
	c, err := openCampaign(o)
	if err != nil {
		return err
	}
	defer c.close()
	rounds, err := c.rounds(ctx, 0, r)
	if err != nil {
		return err
	}
	roundLayers(rounds, c.cfg.Parallelism, r)
	campaignProbes(c.cfg, o.seed, r)
	return nil
}

// campaignProbes times the layers under an epoch on the campaign's own
// path specs, each on a fresh engine without ambient traffic.
func campaignProbes(cfg testbed.RunConfig, seed int64, r *report) {
	rng := sim.NewRNG(sim.DeriveSeed(seed, 0xBE7C4<<32|3))
	tcpCfg := func(pc testbed.PathConfig, cc tcpsim.Congestion) iperf.Config {
		window := cfg.LargeWindowBytes
		if window == 0 {
			window = 1 << 20
		}
		if pc.TargetWindowBytes > 0 {
			window = pc.TargetWindowBytes
		}
		return iperf.Config{
			Duration: cfg.TransferSec,
			TCP:      tcpsim.Config{MaxWindowBytes: window, DelayedAck: true, Congestion: cc},
		}
	}

	// netem: mallocs per packet per hop over one transfer on every path.
	var hops int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, pc := range cfg.Paths {
		eng := sim.NewEngine()
		path := netem.NewPath(eng, rng.Fork(), pc.Spec)
		iperf.Run(eng, path, flowProbeTransfer, tcpCfg(pc, pc.CC))
		for _, q := range append(path.Fwd, path.Rev...) {
			hops += q.Stats().Arrivals
		}
	}
	runtime.ReadMemStats(&m1)
	r.layer["netem.allocs_per_packet_hop"] = float64(m1.Mallocs-m0.Mallocs) / float64(hops)

	// tcpsim: a full transfer per sender over the first droptail path.
	pc := cfg.Paths[0]
	for _, p := range cfg.Paths {
		if p.LinkType == testbed.LinkDroptail {
			pc = p
			break
		}
	}
	for _, cc := range []tcpsim.Congestion{tcpsim.CCReno, tcpsim.CCCubic, tcpsim.CCBBR} {
		var walls, perEvent []float64
		for i := 0; i < 3; i++ {
			eng := sim.NewEngine()
			path := netem.NewPath(eng, rng.Fork(), pc.Spec)
			t0 := time.Now()
			iperf.Run(eng, path, flowProbeTransfer, tcpCfg(pc, cc))
			d := time.Since(t0)
			walls = append(walls, ms(d))
			perEvent = append(perEvent, float64(d.Nanoseconds())/float64(eng.Processed()))
		}
		r.layer["tcpsim.transfer_ms."+string(cc)] = median(walls)
		r.layer["tcpsim.ns_per_event."+string(cc)] = median(perEvent)
	}

	// availbw and probe: the epoch's pathload and ping phases.
	pc = cfg.Paths[0]
	var est, ping []float64
	var allocs uint64
	const reps = 5
	for i := 0; i < reps; i++ {
		eng := sim.NewEngine()
		path := netem.NewPath(eng, rng.Fork(), pc.Spec)
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		availbw.NewEstimator(eng, path, flowProbeChirp, cfg.Pathload).Estimate()
		est = append(est, ms(time.Since(t0)))
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs

		probe.NewResponder(path.B, flowProbePing)
		t0 = time.Now()
		probe.Measure(eng, path.A, flowProbePing, cfg.Ping, cfg.PingDuration)
		ping = append(ping, ms(time.Since(t0)))
	}
	r.layer["availbw.estimate_ms"] = median(est)
	r.layer["availbw.allocs"] = float64(allocs) / reps
	r.layer["probe.measure_ms"] = median(ping)
}

// serveLayers probes the serving layers of s, or of a probe daemon built
// from the seed when s is nil.
func serveLayers(o options, r *report, s *server, pop *population, snapData []byte) error {
	if s == nil {
		spec := probeSpec
		pop = newPopulation(spec, o.seed)
		var err error
		snapFile := filepath.Join(o.scratch, "probe-snapshot.json")
		if snapData, err = writeSnapshot(pop, snapFile); err != nil {
			return err
		}
		if s, err = openServer(spec, snapFile, filepath.Join(o.scratch, "probe-spill")); err != nil {
			return err
		}
		defer s.close()
		if err := s.serve(); err != nil {
			return err
		}
		// The workload has no open loop of its own: time the generator
		// on a short one against the probe daemon.
		conns := runtime.NumCPU()
		hc := newHTTPClient(conns)
		defer hc.CloseIdleConnections()
		var scripts []*script
		var clients []*client
		for i, own := range ownedBy(spec.paths, conns) {
			scripts = append(scripts, newScript(pop, own, o.seed+int64(i)))
			clients = append(clients, &client{http: hc, base: s.base, pop: pop})
		}
		open := newOpenLoop(scripts, 1000, time.Second)
		open.run(clients, 2*time.Second)
		r.attempted += int64(len(open.ops))
		r.failed += open.failed.Load() + int64(len(open.ops)) - open.sent.Load()
		r.layer["gen.late_p99_us"] = quantile(open.issuedLate(), 0.99)
		r.layer["http.open_p99_us"] = open.windowQuantile(0.99)
	}
	reps := probeReps
	if o.small {
		reps = 50
	}
	paths := int32(len(pop.names))
	// Requests of every kind on paths in turn; observes and measures use
	// the path's first live epoch.
	request := func(kind uint8, i int) op {
		p := int32(i) % paths
		o := op{kind: kind, path: p, epoch: int32(pop.spec.preload)}
		if kind == opBatch {
			o.batch = []int32{p, (p + 1) % paths, (p + 2) % paths, (p + 3) % paths}
		}
		return o
	}

	// HTTP: one client, one request at a time, over loopback.
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	c := &client{http: hc, base: s.base, pop: pop}
	for kind := uint8(0); kind < opKinds; kind++ {
		var rtt []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := c.do(request(kind, i)); err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			rtt = append(rtt, us(time.Since(t0)))
		}
		r.layer["http.rtt_us."+opNames[kind]] = median(rtt)
	}

	// predsvc handlers: the daemon's handler stack on recorded requests,
	// without the network.
	h := s.srv.Handler()
	for kind := uint8(0); kind < opKinds; kind++ {
		var d []float64
		for i := 0; i < reps; i++ {
			req, err := c.request(request(kind, i))
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			d = append(d, us(time.Since(t0)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("probe: handler %s: status %d", opNames[kind], rec.Code)
			}
		}
		r.layer["predsvc.handler_us."+opNames[kind]] = median(d)
	}

	snap, err := predsvc.DecodeSnapshot(snapData)
	if err != nil {
		return err
	}

	// Memory: live heap of a restored in-memory registry, per session.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	hot := predsvc.NewRegistry(predsvc.Config{Capacity: 1 << 30})
	if _, err := hot.Restore(snap); err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.layer["predsvc.heap_bytes_per_session"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(hot.Len())

	// store: a lookup of a resident path, and of a spilled one in a spill
	// store holding a quarter of the paths, swept in turn so that every
	// lookup faults.
	var hotUS, coldUS []float64
	for i := 0; i < reps; i++ {
		name := pop.names[int32(i)%paths]
		t0 := time.Now()
		_, ok := hot.Lookup(name)
		hotUS = append(hotUS, us(time.Since(t0)))
		if !ok {
			return fmt.Errorf("probe: %s not in the registry", name)
		}
	}
	r.layer["store.lookup_us.hot"] = median(hotUS)
	cold, err := predsvc.OpenRegistry(predsvc.Config{
		Capacity: max(len(pop.names)/4, 1),
		SpillDir: filepath.Join(o.scratch, "probe-cold"),
	})
	if err != nil {
		return err
	}
	defer cold.Close()
	if _, err := cold.Restore(snap); err != nil {
		return err
	}
	before := cold.TierStats()
	for i := 0; i < reps; i++ {
		name := pop.names[int32(i)%paths]
		t0 := time.Now()
		_, ok := cold.Lookup(name)
		coldUS = append(coldUS, us(time.Since(t0)))
		if !ok {
			return fmt.Errorf("probe: %s not in the spill store", name)
		}
	}
	r.layer["store.lookup_us.cold"] = median(coldUS)
	if _, ok := r.layer["store.fault_ratio"]; !ok {
		after := cold.TierStats()
		r.layer["store.fault_ratio"] = float64(after.Faults-before.Faults) / float64(reps)
		r.layer["store.spills"] = float64(after.Spills - before.Spills)
	}

	// predict: the session calls behind observe, predict and measure.
	var obsUS, predUS, measUS []float64
	var p predsvc.Prediction
	var fb predsvc.FBState
	for i := 0; i < reps; i++ {
		path := int32(i) % paths
		sess, _ := hot.Lookup(pop.names[path])
		e := pop.spec.preload + i/int(paths)%liveEpochs
		in := pop.series[path].Inputs[e]
		t0 := time.Now()
		sess.SetMeasurement(in)
		t1 := time.Now()
		sess.PredictInto(&p, &fb)
		t2 := time.Now()
		sess.Observe(pop.series[path].Throughputs[e])
		t3 := time.Now()
		measUS = append(measUS, us(t1.Sub(t0)))
		predUS = append(predUS, us(t2.Sub(t1)))
		obsUS = append(obsUS, us(t3.Sub(t2)))
	}
	r.layer["predict.measure_us"] = median(measUS)
	r.layer["predict.predict_us"] = median(predUS)
	r.layer["predict.observe_us"] = median(obsUS)
	r.layer["fastjson.self_us"] = r.layer["predsvc.handler_us.observe"] - r.layer["store.lookup_us.hot"] - r.layer["predict.observe_us"]

	// Snapshot codec over the whole population.
	var data []byte
	encode := timeMedian(3, func() { data, err = predsvc.EncodeSnapshot(snap) })
	if err != nil {
		return err
	}
	decode := timeMedian(3, func() { _, err = predsvc.DecodeSnapshot(data) })
	if err != nil {
		return err
	}
	restore := timeMedian(3, func() { _, err = predsvc.NewRegistry(predsvc.Config{}).Restore(snap) })
	if err != nil {
		return err
	}
	r.layer["snapshot.encode_ms"] = ms(encode)
	r.layer["snapshot.decode_ms"] = ms(decode)
	r.layer["snapshot.restore_ms"] = ms(restore)
	runtime.KeepAlive(hot)
	return nil
}
