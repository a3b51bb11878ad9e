package netem

import "repro/internal/sim"

// inFlight carries packets across a propagation delay without a closure
// per packet. Each packet goes into a FIFO ring together with its
// receiver, and the event scheduled for it is one bound callback
// (deliverFn = f.deliver) that pops the ring's head.
//
// That pairing is exact because of the engine's (at, seq) order: a packet
// joins the ring only when it is due no earlier than the ring's tail, so
// ring events are scheduled with non-decreasing times and increasing
// sequence numbers, and the k-th of them to fire is the k-th pushed. A
// packet due before the tail — a reordered packet, or one sent after the
// delay shrank — would overtake the ring, so it keeps a closure of its own.
// Either way the event is scheduled by the same single Schedule call at
// the same point, so sequence numbers, event order and event counts are
// those of a closure per packet.
//
// The ring is a pass-through element in the PacketPool protocol: it never
// releases a packet, and it clears each slot on pop so it keeps nothing
// alive after the receiver recycles the packet.
type inFlight struct {
	ring      []flight
	head      int
	tailDue   float64 // due time of the newest ring entry
	deliverFn func()
}

type flight struct {
	pkt  *Packet
	next Receiver
}

// send delivers pkt to next after delay seconds of virtual time. A
// negative or NaN delay counts as zero, as in sim.Engine.Schedule.
func (f *inFlight) send(eng *sim.Engine, delay float64, pkt *Packet, next Receiver) {
	if !(delay > 0) {
		delay = 0
	}
	due := eng.Now() + delay
	if f.head < len(f.ring) && due < f.tailDue {
		eng.At(due, func() { next.Receive(pkt) })
		return
	}
	if f.deliverFn == nil {
		f.deliverFn = f.deliver
	}
	f.ring = append(f.ring, flight{pkt: pkt, next: next})
	f.tailDue = due
	eng.At(due, f.deliverFn)
}

// deliver hands the oldest ring entry to its receiver.
func (f *inFlight) deliver() {
	e := f.ring[f.head]
	f.ring[f.head] = flight{}
	f.head++
	if f.head == len(f.ring) {
		f.ring = f.ring[:0]
		f.head = 0
	} else if f.head > 64 && f.head*2 > len(f.ring) {
		n := copy(f.ring, f.ring[f.head:])
		clear(f.ring[n:])
		f.ring = f.ring[:n]
		f.head = 0
	}
	e.next.Receive(e.pkt)
}
