package netem_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_delivery.txt")

// goldenDeliveryTrace runs a 3-hop forward/reverse chain that exercises
// every queue mechanism — buffer overflow, RED, random loss, a variable
// rate, reordering — plus a DelayReceiver, under Poisson and Pareto cross
// traffic and one Reno flow, and renders one line per queue event and per
// endpoint delivery: `time queue event flow seq`. Times print with full
// float64 precision, so any change in event order or timing shows.
func goldenDeliveryTrace() string {
	eng := sim.NewEngine()
	rng := sim.NewRNG(20050822)
	p := netem.NewPath(eng, rng.Fork(), netem.PathSpec{
		Name: "golden",
		Forward: []netem.Hop{
			{CapacityBps: 20e6, PropDelay: 0.004, BufferBytes: 1 << 20, LossProb: 0.02},
			{CapacityBps: 3e6, PropDelay: 0.012, BufferBytes: 24 * 1500, RED: true},
			{CapacityBps: 8e6, PropDelay: 0.006, BufferBytes: 12 * 1500, BufferPackets: 10,
				Rate: &netem.RateSchedule{Steps: []netem.RateStep{{T: 0.4, Mult: 0.3}, {T: 0.9, Mult: 1.2}}}},
		},
		Reverse: []netem.Hop{
			{CapacityBps: 10e6, PropDelay: 0.006, BufferBytes: 64 * 1500},
			{CapacityBps: 5e6, PropDelay: 0.01, BufferBytes: 32 * 1500, LossProb: 0.01},
			{CapacityBps: 10e6, PropDelay: 0.004, BufferBytes: 64 * 1500},
		},
	})
	p.Fwd[2].ReorderProb = 0.05
	p.Rev[1].ReorderProb = 0.03
	p.Rev[1].ReorderDelay = 0.002

	var b strings.Builder
	line := func(who, event string, pkt *netem.Packet) {
		seq := pkt.Seq
		if pkt.Kind == netem.KindAck {
			seq = pkt.Ack
		}
		b.WriteString(strconv.FormatFloat(eng.Now(), 'g', -1, 64))
		fmt.Fprintf(&b, " %s %s %d %d\n", who, event, pkt.Flow, seq)
	}
	for _, q := range append(append([]*netem.Queue(nil), p.Fwd...), p.Rev...) {
		q := q
		q.SetMonitor(func(ev netem.QueueEvent) {
			line(q.Name, [...]string{"enq", "deq", "drop"}[ev.Kind], ev.Pkt)
		})
	}

	const reno = 1
	conn := tcpsim.DialWithExtraDelay(eng, p, reno, 0.008, tcpsim.Config{})
	// Log each endpoint arrival in front of the flow's DelayReceiver, and
	// each delivery it makes after the extra delay.
	for _, ep := range []*netem.Endpoint{p.A, p.B} {
		ep := ep
		dr := ep.Handler(reno).(*netem.DelayReceiver)
		inner := dr.Next
		dr.Next = netem.ReceiverFunc(func(pkt *netem.Packet) {
			line(ep.Name, "deliver", pkt)
			inner.Receive(pkt)
		})
		ep.Register(reno, netem.ReceiverFunc(func(pkt *netem.Packet) {
			line(ep.Name, "arrive", pkt)
			dr.Receive(pkt)
		}))
		ep.SetFallback(netem.ReceiverFunc(func(pkt *netem.Packet) {
			line(ep.Name, "arrive", pkt)
			ep.ReleasePacket(pkt)
		}))
	}

	netem.NewPoissonSource(eng, rng.Fork(), 100, 1.2e6, 1000, nil, p.Fwd[0]).Start()
	netem.NewParetoOnOffSource(eng, rng.Fork(), 101, 2.5e6, 1200, 0.05, 0.1, 1.5, nil, p.Fwd[1]).Start()
	netem.NewPoissonSource(eng, rng.Fork(), 102, 0.8e6, 576, nil, p.Rev[0]).Start()
	conn.Sender.Start()
	eng.RunUntil(1.5)
	return b.String()
}

// TestGoldenDeliveryTrace pins the packet path's exact event sequence: the
// queue/propagation machinery may be restructured, but every enqueue,
// dequeue, drop and delivery must happen at the same instant in the same
// order. Regenerate (only for an intended behaviour change) with
// `go test ./internal/netem -run GoldenDelivery -update`.
func TestGoldenDeliveryTrace(t *testing.T) {
	got := goldenDeliveryTrace()
	path := filepath.Join("testdata", "golden_delivery.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("trace diverges at line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("trace length differs: got %d lines, want %d", len(gl), len(wl))
}
