package predsvc

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/predict"
)

// RegisterObsMetrics re-exports the server's counters through an obs
// registry in Prometheus form. Everything is bridged with scrape-time
// callbacks over the existing atomic Metrics struct — the request path
// keeps its single accounting site and nothing is double-counted.
//
// The catalogue:
//
//	predsvc_requests_total{endpoint=E}            requests served, per endpoint
//	predsvc_errors_total{endpoint=E}              4xx/5xx responses, per endpoint
//	predsvc_request_duration_seconds{endpoint=E}  latency histogram (2^i µs buckets)
//	predsvc_observations_total …                  the business + resilience counters
//	predsvc_paths, predsvc_path_capacity          registry occupancy
//	predsvc_evictions_total                       hot-tier LRU evictions
//	predsvc_store_hot_paths, …_cold_paths         storage-tier occupancy
//	predsvc_store_spills_total, …_faults_total    disk-tier traffic (see store.TierStats)
//	predsvc_uptime_seconds                        since NewServer
//	predsvc_rmsre{predictor=F}                    mean rolling RMSRE (Eq. 5) across paths, per family
//	predsvc_regret{family=F}                      mean rolling regret vs best-in-hindsight, per family
//	predsvc_family_selected_total{family=F}       predict responses each family won
//	predsvc_interval_coverage                     fraction of observations inside [p10,p90]
//	predsvc_lso_shifts, predsvc_lso_outliers      LSO detections summed over live sessions
//	predsvc_ready, predsvc_draining               lifecycle gauges behind /readyz
//	predsvc_handoff_*_total                       shard-handoff traffic (export/import/skip/drop)
//
// NewServer calls this automatically when Config.Obs is set; it is
// exported for callers that mount a server behind their own Obs.
func (r *Server) RegisterObsMetrics(m *obs.Registry) {
	for ep := endpoint(0); ep < epCount; ep++ {
		ep := ep
		label := fmt.Sprintf("{endpoint=%q}", endpointNames[ep])
		m.CounterFunc("predsvc_requests_total"+label, "requests served",
			func() uint64 { return r.metrics.requests[ep].Load() })
		m.CounterFunc("predsvc_errors_total"+label, "requests answered with a 4xx/5xx status",
			func() uint64 { return r.metrics.errors[ep].Load() })
		m.HistogramFunc("predsvc_request_duration_seconds"+label, "request latency",
			func() obs.HistogramState { return latencyState(&r.metrics.latency[ep]) })
	}

	counters := []struct {
		name, help string
		v          interface{ Load() uint64 }
	}{
		{"predsvc_observations_total", "throughput observations absorbed", &r.metrics.observations},
		{"predsvc_predictions_total", "predict responses served", &r.metrics.predictions},
		{"predsvc_snapshots_written_total", "registry snapshots persisted", &r.metrics.snapshotsWritten},
		{"predsvc_panics_recovered_total", "handler panics converted to 500s", &r.metrics.panicsRecovered},
		{"predsvc_requests_shed_total", "requests shed with 429 past the in-flight cap", &r.metrics.requestsShed},
		{"predsvc_rejected_inputs_total", "observations/measurements rejected as invalid", &r.metrics.rejectedInputs},
		{"predsvc_snapshot_retries_total", "snapshot write backoff retries", &r.metrics.snapshotRetries},
		{"predsvc_snapshot_failures_total", "failed snapshot write attempts", &r.metrics.snapshotFailures},
		{"predsvc_stale_predictions_total", "predict responses whose FB forecast was stale", &r.metrics.stalePredictions},
		{"predsvc_handoff_exported_total", "sessions streamed out by /v1/sessions/export", &r.metrics.handoffExported},
		{"predsvc_handoff_imported_total", "sessions applied by /v1/sessions/import", &r.metrics.handoffImported},
		{"predsvc_handoff_skipped_total", "import records skipped by last-writer-wins", &r.metrics.handoffSkipped},
		{"predsvc_handoff_dropped_total", "sessions deleted by /v1/sessions/drop after handoff", &r.metrics.handoffDropped},
	}
	for _, c := range counters {
		m.CounterFunc(c.name, c.help, c.v.Load)
	}

	// Lifecycle: what /readyz answers, as scrapeable gauges — a rolling
	// restart shows up as predsvc_ready dropping to 0 with
	// predsvc_draining at 1 while in-flight requests finish.
	m.GaugeFunc("predsvc_ready", "1 when the server answers /readyz with 200 (not draining, not restoring)",
		func() float64 {
			if r.Ready() {
				return 1
			}
			return 0
		})
	m.GaugeFunc("predsvc_draining", "1 once BeginDrain flipped the server to draining (one-way)",
		func() float64 {
			if r.Draining() {
				return 1
			}
			return 0
		})

	m.GaugeFunc("predsvc_paths", "paths currently registered",
		func() float64 { return float64(r.reg.Len()) })
	m.GaugeFunc("predsvc_path_capacity", "registry hot-tier path capacity",
		func() float64 { return float64(r.reg.Capacity()) })
	m.CounterFunc("predsvc_evictions_total", "hot-tier LRU path evictions",
		r.reg.Evictions)

	// Storage tiers (see internal/predsvc/store): on the in-memory store
	// cold/spills/faults stay zero; on a spill store they track the disk
	// tier — occupancy gauges, and counters for sessions serialized out
	// (spills) and read back (faults).
	m.GaugeFunc("predsvc_store_hot_paths", "sessions resident in the in-memory hot tier",
		func() float64 { return float64(r.reg.TierStats().HotPaths) })
	m.GaugeFunc("predsvc_store_cold_paths", "sessions resident only in the spill log",
		func() float64 { return float64(r.reg.TierStats().ColdPaths) })
	m.CounterFunc("predsvc_store_spills_total", "sessions spilled to the cold tier on eviction",
		func() uint64 { return r.reg.TierStats().Spills })
	m.CounterFunc("predsvc_store_faults_total", "spill-log reads that rebuilt a session",
		func() uint64 { return r.reg.TierStats().Faults })
	m.CounterFunc("predsvc_store_errors_total", "spill records dropped on checksum or codec failure",
		func() uint64 { return r.reg.TierStats().Errors })
	m.GaugeFunc("predsvc_uptime_seconds", "seconds since the server was built",
		func() float64 { return time.Since(r.start).Seconds() })
	m.GaugeFunc("predsvc_goroutines", "goroutines in the process",
		func() float64 { return float64(runtime.NumGoroutine()) })

	// Per-family tournament metrics. The zoo is identical on every path,
	// so a probe session supplies the family names; the gauges average
	// each family's rolling RMSRE (paper Eq. 5) and regret over the
	// paths where its error window has content, and the counters track
	// how often each family won the online selection.
	probe := newSession("", r.cfg)
	for i, f := range probe.families {
		i, name := i, f.name
		m.GaugeFunc(fmt.Sprintf("predsvc_rmsre{predictor=%q}", name),
			"mean rolling RMSRE (Eq. 5) across paths",
			func() float64 { return r.meanRMSRE(i) })
		m.GaugeFunc(fmt.Sprintf("predsvc_regret{family=%q}", name),
			"mean rolling regret vs the best-in-hindsight family, across paths",
			func() float64 { return r.meanRegret(i) })
		m.CounterFunc(fmt.Sprintf("predsvc_family_selected_total{family=%q}", name),
			"predict responses this family won",
			func() uint64 { return r.metrics.familySelections[i].Load() })
	}
	m.GaugeFunc("predsvc_interval_coverage",
		"fraction of observations inside the standing [p10,p90] interval, across paths",
		func() float64 { return r.intervalCoverage() })

	m.GaugeFunc("predsvc_lso_shifts", "level shifts detected, summed over live sessions",
		func() float64 { s, _ := r.lsoTotals(); return float64(s) })
	m.GaugeFunc("predsvc_lso_outliers", "samples currently labelled outliers, summed over live sessions",
		func() float64 { _, o := r.lsoTotals(); return float64(o) })
}

// latencyState converts one endpoint's exponential latency histogram
// (bucket i = latency < 2^i µs) into Prometheus histogram state. The sum
// is estimated from bucket midpoints, exactly like HistogramSnapshot's
// mean.
func latencyState(h *histogram) obs.HistogramState {
	snap := h.snapshot()
	bounds := make([]float64, histBuckets-1)
	for i := range bounds {
		bounds[i] = float64(uint64(1)<<uint(i)) * 1e-6
	}
	return obs.HistogramState{
		UpperBounds: bounds,
		Counts:      snap.Counts,
		Sum:         snap.MeanUsec() * float64(snap.Total) * 1e-6,
	}
}

// meanRMSRE averages family i's rolling RMSRE over every live session
// that has scored at least one forecast for it. Sessions self-lock; the
// scrape never blocks the registry shards on predictor state.
func (r *Server) meanRMSRE(i int) float64 {
	var sum float64
	var n int
	r.reg.forEachLRU(func(s *Session) {
		if v, ok := s.familyRMSRE(i); ok {
			sum += v
			n++
		}
	})
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// meanRegret averages family i's rolling regret (mean |E| gap to the
// session's best family) over every live session where it has scored.
func (r *Server) meanRegret(i int) float64 {
	var sum float64
	var n int
	r.reg.forEachLRU(func(s *Session) {
		if v, ok := s.familyRegret(i); ok {
			sum += v
			n++
		}
	})
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// intervalCoverage sums the coverage counters over live sessions: the
// fraction of observations that landed inside the standing [P10,P90]
// interval of the then-selected family (0 until anything was scored;
// nominal is 0.8).
func (r *Server) intervalCoverage() float64 {
	var in, total uint64
	r.reg.forEachLRU(func(s *Session) {
		i, t := s.coverage()
		in += i
		total += t
	})
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// lsoTotals sums LSO detections over every live session.
func (r *Server) lsoTotals() (shifts, outliers int) {
	r.reg.forEachLRU(func(s *Session) {
		sh, out := s.lsoStats()
		shifts += sh
		outliers += out
	})
	return
}

// familyRMSRE returns family i's rolling RMSRE and whether its window
// has scored anything.
func (s *Session) familyRMSRE(i int) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i >= len(s.families) {
		return 0, false
	}
	return s.families[i].err.rmsre(s.cfg.ErrClamp)
}

// familyRegret returns family i's rolling regret — its mean |E| minus
// the lowest mean |E| among the session's families — and whether its
// window has scored anything.
func (s *Session) familyRegret(i int) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i >= len(s.families) || s.families[i].err.Len() == 0 {
		return 0, false
	}
	return s.families[i].err.meanAbs() - s.minMeanAbsLocked(), true
}

// lsoStats reports the session's LSO detections (zero when LSO is
// disabled). The ensemble members are LSO-wrapped with one config over
// one series, so they screen identically: one screen is counted, not
// each member's copy of it.
func (s *Session) lsoStats() (shifts, outliers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.families[0].hb.(*predict.LSO); ok {
		return l.Shifts, l.Outliers
	}
	return 0, 0
}
