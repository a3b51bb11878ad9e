package netem

import (
	"testing"

	"repro/internal/sim"
)

// arrival records when a packet reached the far end of a delay stage.
type arrival struct {
	seq int64
	at  float64
}

func recordArrivals(eng *sim.Engine, got *[]arrival) Receiver {
	return ReceiverFunc(func(pkt *Packet) {
		*got = append(*got, arrival{pkt.Seq, eng.Now()})
	})
}

// checkArrivals compares arrivals against the due time computed for each
// packet at its departure. The due times use the engine's own arithmetic
// (now + delay), so the comparison is exact.
func checkArrivals(t *testing.T, got []arrival, due map[int64]float64, order []int64) {
	t.Helper()
	if len(got) != len(order) {
		t.Fatalf("got %d arrivals, want %d: %v", len(got), len(order), got)
	}
	for i, a := range got {
		if a.seq != order[i] {
			t.Errorf("arrival %d is packet %d, want %d", i, a.seq, order[i])
		}
		if a.at != due[a.seq] {
			t.Errorf("packet %d arrived at %v, want %v", a.seq, a.at, due[a.seq])
		}
	}
}

// TestQueuePropDelayShrinkInFlight shrinks and then grows PropDelay while
// packets propagate. Packets sent after the shrink overtake the ones in
// flight (the closure fallback), a packet sent after the growth rejoins the
// in-flight ring behind them, and every packet arrives at its own due time.
func TestQueuePropDelayShrinkInFlight(t *testing.T) {
	eng := sim.NewEngine()
	var got []arrival
	q := NewQueue(eng, nil, "q", 1e9, 0.1, 1<<20, recordArrivals(eng, &got))
	tx := q.TransmissionTime(1000)
	due := map[int64]float64{}
	send := func(at float64, seq int64, prop float64) {
		eng.At(at, func() {
			q.PropDelay = prop
			due[seq] = (eng.Now() + tx) + prop
			q.Receive(&Packet{Seq: seq, Size: 1000})
		})
	}
	send(0, 0, 0.1)
	send(0.001, 1, 0.1)
	send(0.01, 2, 0.02) // shrink: due before packets 0 and 1
	send(0.015, 3, 0.02)
	send(0.05, 4, 0.2) // grow: due after everything in flight
	send(0.06, 5, 0.2)
	eng.Run()
	checkArrivals(t, got, due, []int64{2, 3, 0, 1, 4, 5})
}

// TestDelayReceiverShrinkInFlight is the DelayReceiver counterpart.
func TestDelayReceiverShrinkInFlight(t *testing.T) {
	eng := sim.NewEngine()
	var got []arrival
	d := NewDelayReceiver(eng, 0.1, recordArrivals(eng, &got))
	due := map[int64]float64{}
	send := func(at float64, seq int64, delay float64) {
		eng.At(at, func() {
			d.Delay = delay
			due[seq] = eng.Now() + delay
			d.Receive(&Packet{Seq: seq, Size: 1000})
		})
	}
	send(0, 0, 0.1)
	send(0.001, 1, 0.1)
	send(0.01, 2, 0.03) // shrink: overtakes 0 and 1
	send(0.02, 3, 0.005)
	send(0.03, 4, 0.3) // grow
	send(0.03, 5, 0.3) // same due time as 4: FIFO among equals
	eng.Run()
	checkArrivals(t, got, due, []int64{3, 2, 0, 1, 4, 5})
}

// TestInFlightClearsSlots checks the ring's pass-through ownership: after
// delivery no ring slot, live or spare, still points at a packet.
func TestInFlightClearsSlots(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDelayReceiver(eng, 0.2, Drop) // ~200 in flight: the ring compacts
	for i := 0; i < 1000; i++ {
		eng.At(float64(i)*0.001, func() { d.Receive(&Packet{Size: 100}) })
	}
	eng.Run()
	for i, e := range d.flight.ring[:cap(d.flight.ring)] {
		if e.pkt != nil || e.next != nil {
			t.Fatalf("ring slot %d still holds a packet after delivery", i)
		}
	}
}

// TestPacketHopAllocFree is the packet path's zero-allocation contract:
// on a warmed three-hop path under Poisson and Pareto cross traffic, with
// a DelayReceiver in front of the sink, forwarding a packet there and back
// allocates nothing per packet.
func TestPacketHopAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(3)
	p := NewPath(eng, rng.Fork(), PathSpec{
		Name: "alloc",
		Forward: []Hop{
			{CapacityBps: 50e6, PropDelay: 0.002, BufferBytes: 256 * 1500},
			{CapacityBps: 10e6, PropDelay: 0.01, BufferBytes: 64 * 1500},
			{CapacityBps: 50e6, PropDelay: 0.003, BufferBytes: 256 * 1500},
		},
	})
	const flow = 1
	p.B.Register(flow, NewDelayReceiver(eng, 0.005, ReceiverFunc(func(pkt *Packet) {
		pkt.Kind = KindAck
		p.B.SendRaw(pkt) // turn the packet around toward A
	})))
	p.A.Register(flow, ReceiverFunc(p.A.ReleasePacket))
	NewPoissonSource(eng, rng.Fork(), 100, 3e6, 1000, nil, p.Fwd[0]).Start()
	NewParetoOnOffSource(eng, rng.Fork(), 101, 4e6, 1200, 0.05, 0.1, 1.5, nil, p.Fwd[1]).Start()

	hop := func() {
		pkt := p.A.NewPacket()
		pkt.Flow = flow
		pkt.Kind = KindData
		pkt.Size = 1500
		p.A.Send(pkt)
		eng.RunUntil(eng.Now() + 0.01)
	}
	for i := 0; i < 2000; i++ { // warm rings, FIFOs, the event heap and the pool
		hop()
	}
	if allocs := testing.AllocsPerRun(1000, hop); allocs != 0 {
		t.Fatalf("forwarding allocates %v objects per packet, want 0", allocs)
	}
}
