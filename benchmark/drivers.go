package main

import (
	"fmt"
	"math/rand"
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/core"
	"harmonia/internal/dataplane"
	"harmonia/internal/metrics"
	"harmonia/internal/protocol"
	"harmonia/internal/protocol/chain"
	"harmonia/internal/protocol/craq"
	"harmonia/internal/protocol/nopaxos"
	"harmonia/internal/protocol/pb"
	"harmonia/internal/protocol/ptest"
	"harmonia/internal/protocol/vr"
	"harmonia/internal/sim"
	"harmonia/internal/simnet"
	"harmonia/internal/store"
	"harmonia/internal/wire"
	wl "harmonia/internal/workload"
)

// The drivers are timing loops over one layer's public functions. The
// program has no spans of its own yet, so this is where a layer's cost
// per call comes from; the traced run supplies the shape each loop runs
// at, so that a store is timed at the workload's working set and a
// queue at the depth the workload reached.

// shape is what the traced run measured that the drivers size
// themselves by.
type shape struct {
	calls   int          // calls per timing pass
	keys    int          // workload key space
	dist    cluster.Dist // key distribution
	copies  int          // replicas holding each object
	stages  int          // dirty-set geometry
	slots   int
	dirty   int // dirty-set entries at the sampled maximum
	pending int // engine events pending at the sampled maximum
	queue   int // deepest replica queue sampled
}

// sink keeps the loops' results live so the compiler cannot drop the
// calls being timed.
var sink int

// nsPerCall times three passes of n calls and returns the median pass,
// in nanoseconds per call.
func nsPerCall(n int, pass func(n int)) float64 {
	per := make([]float64, 3)
	for p := range per {
		t0 := time.Now()
		pass(n)
		per[p] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// keyIDs hashes the workload's key space the way the cluster's key
// table does.
func keyIDs(n int) []wire.ObjectID {
	ids := make([]wire.ObjectID, n)
	for i := range ids {
		ids[i] = wire.HashKey(wl.KeyName(i))
	}
	return ids
}

// runDrivers returns every driver-measured per-layer metric.
func runDrivers(sh shape) (map[string]float64, []string) {
	out := make(map[string]float64)
	var errs []string
	ids := keyIDs(sh.keys)
	rng := rand.New(rand.NewSource(1))
	// A fixed visiting order over the key space, so loops touch memory
	// the way a uniform draw does without timing the generator.
	order := rng.Perm(len(ids))
	key := func(i int) wire.ObjectID { return ids[order[i%len(order)]] }

	out["sim.ns_per_event"] = driveSimEvents(sh.calls, sh.pending)
	out["sim.cancel_ns"] = driveSimCancel(sh.calls)
	out["simnet.hop_ns"] = driveHop(sh.calls, sh.queue)
	out["wire.packet_ns"] = nsPerCall(sh.calls, func(n int) {
		for i := 0; i < n; i++ {
			p := wire.NewPacket()
			q := p.FlightClone()
			q.Release()
			p.Release()
		}
	})

	// dataplane: the dirty-set table at the occupancy the run reached.
	tab := dataplane.NewTable(sh.stages, sh.slots)
	for i := 0; i < sh.dirty; i++ {
		_ = tab.Insert(uint32(key(i)), uint64(i+1)) // a full table only lowers the occupancy timed
	}
	out["dataplane.lookup_ns"] = nsPerCall(sh.calls, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := tab.Lookup(uint32(key(i))); ok {
				sink++
			}
		}
	})
	out["dataplane.insert_delete_ns"] = nsPerCall(sh.calls, func(n int) {
		for i := 0; i < n; i++ {
			k := uint32(key(sh.dirty + i))
			if tab.Insert(k, uint64(i+1)) == nil {
				tab.Delete(k, uint64(i+1))
			}
		}
	})

	// core: Algorithm 1 with the sends stubbed out.
	sched := newDriverScheduler(sh, 1)
	read := &wire.Packet{Op: wire.OpRead, ClientID: 1, ReqID: 1}
	out["core.sched_read_ns"] = nsPerCall(sh.calls, func(n int) {
		for i := 0; i < n; i++ {
			read.ObjID, read.Flags = key(i), 0
			sched.Process(read)
		}
	})
	write := &wire.Packet{Op: wire.OpWrite, ClientID: 1, Value: []byte("v")}
	done := &wire.Packet{Op: wire.OpWriteCompletion}
	out["core.sched_write_ns"] = nsPerCall(sh.calls, func(n int) {
		for i := 0; i < n; i++ {
			write.ObjID = key(i)
			sched.Process(write)
			done.ObjID, done.Seq = write.ObjID, write.Seq
			sched.Process(done)
		}
	})
	const groups = 8
	front := core.NewFrontend(groups)
	for g := 0; g < groups; g++ {
		front.SetGroup(g, newDriverScheduler(sh, g+1))
	}
	out["core.frontend_ns"] = nsPerCall(sh.calls, func(n int) {
		for i := 0; i < n; i++ {
			read.ObjID, read.Flags = key(i), 0
			front.Recv(simnet.NodeID(1<<20), read)
		}
	})

	// protocol: one committed write through a 3-replica group of each
	// protocol, and the shim's fast-read check.
	for _, p := range driverProtocols {
		ns, msgs, err := driveProtocolWrite(p, sh.calls/10, key)
		if err != nil {
			errs = append(errs, fmt.Sprintf("protocol driver %s: %v", p.name, err))
		}
		out["protocol."+p.name+".write_ns"] = ns
		out["protocol."+p.name+".msgs_per_write"] = msgs
	}
	out["protocol.fast_read_ns"] = driveFastRead(sh.calls, ids, key)

	// store: the working set is every replica's copy of the key space.
	stores := make([]*store.Store, max(sh.copies, 1))
	for s := range stores {
		stores[s] = store.New(8)
		for i, id := range ids {
			stores[s].Seed(id, []byte("12345678"), wire.Seq{N: uint64(i + 1)})
		}
	}
	out["store.get_ns"] = nsPerCall(sh.calls, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := stores[i%len(stores)].Get(key(i)); ok {
				sink++
			}
		}
	})
	var seq uint64 = uint64(len(ids))
	val := []byte("87654321")
	out["store.apply_ns"] = nsPerCall(sh.calls, func(n int) {
		for i := 0; i < n; i++ {
			// Every copy applies every write, in sequence order.
			if i%len(stores) == 0 {
				seq++
			}
			_ = stores[i%len(stores)].Apply(key(i/len(stores)), val, wire.Seq{Epoch: 1, N: seq}, false)
		}
	})

	// workload: building the generator the load specs ask for, and
	// drawing from it.
	var gen wl.Generator
	t0 := time.Now()
	switch sh.dist {
	case cluster.Zipf09:
		gen = wl.NewZipfianTheta(sh.keys, 0.9, rng)
	case cluster.Zipf12:
		gen = wl.NewZipfianTheta(sh.keys, 1.2, rng)
	default:
		gen = wl.NewUniform(sh.keys, rng)
	}
	out["workload.gen_build_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	out["workload.keygen_ns"] = nsPerCall(sh.calls, func(n int) {
		for i := 0; i < n; i++ {
			sink += gen.Next()
		}
	})

	hist := metrics.NewHistogram()
	out["metrics.observe_ns"] = nsPerCall(sh.calls, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(time.Duration(20+i%977) * time.Microsecond)
		}
	})
	return out, errs
}

type nullSender struct{}

func (nullSender) Send(simnet.NodeID, *wire.Packet) {}

// newDriverScheduler builds a ready scheduler partition with the
// run's dirty-set geometry and occupancy.
func newDriverScheduler(sh shape, group int) *core.Scheduler {
	s := core.New(core.Config{
		Epoch: 1, Stages: sh.stages, SlotsPerStage: sh.slots,
		Replicas: []simnet.NodeID{10, 11, 12}, WriteDst: 10, ReadDst: 12,
		ClientBase: 1 << 20,
	}, nullSender{})
	prime := &wire.Packet{Op: wire.OpWrite, ObjID: wire.ObjectID(group)}
	s.Process(prime)
	s.Process(&wire.Packet{Op: wire.OpWriteCompletion, ObjID: prime.ObjID, Seq: prime.Seq})
	for i := 0; i < sh.dirty; i++ {
		// Writes never completed: entries that stay dirty.
		s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: wire.ObjectID(1<<31 | i)})
	}
	return s
}

// driveSimEvents times schedule+fire with the wheel holding pending
// events, each chain rescheduling itself as it fires.
func driveSimEvents(calls, pending int) float64 {
	eng := sim.NewEngine(1)
	var again func(any)
	again = func(gap any) { eng.AfterCall(gap.(time.Duration), again, gap) }
	for i := 0; i < max(pending, 1); i++ {
		var gap any = time.Duration(5+i%64) * time.Microsecond // boxed once per chain
		eng.AfterCall(gap.(time.Duration), again, gap)
	}
	return nsPerCall(calls, func(n int) {
		for i := 0; i < n; i++ {
			eng.Step()
		}
	})
}

// driveSimCancel times arming and stopping a retry-style timer. The
// clock advances now and then so the wheel sweeps the dead events, as
// it does in a run.
func driveSimCancel(calls int) float64 {
	eng := sim.NewEngine(1)
	noop := func(any) {}
	return nsPerCall(calls, func(n int) {
		for i := 0; i < n; i++ {
			eng.AfterCallT(2*time.Millisecond, noop, nil).Stop()
			if i%1024 == 1023 {
				eng.RunFor(4 * time.Millisecond)
			}
		}
	})
}

// driveHop times one message through send, arrival, service and
// completion at an 8-worker node whose queue is kept at the given
// depth: each handled message is sent again.
func driveHop(calls, queue int) float64 {
	eng := sim.NewEngine(1)
	net := simnet.New(eng, simnet.LinkConfig{Latency: 5 * time.Microsecond})
	const src, dst, workers = 1, 2, 8
	var handled int
	net.AddNode(src, simnet.HandlerFunc(func(simnet.NodeID, simnet.Message) {}), simnet.ProcConfig{})
	net.AddNode(dst, simnet.HandlerFunc(func(_ simnet.NodeID, msg simnet.Message) {
		handled++
		net.Send(src, dst, msg)
	}), simnet.ProcConfig{
		Workers: workers,
		Cost:    func(simnet.Message) time.Duration { return 10 * time.Microsecond },
	})
	msg := &struct{}{}
	for i := 0; i < queue+workers; i++ {
		net.Send(src, dst, msg)
	}
	return nsPerCall(calls, func(n int) {
		for target := handled + n; handled < target; {
			eng.Step()
		}
	})
}

// driverProtocol builds a 3-replica group of one protocol on the test
// harness; multicast marks the protocol whose writes the switch
// delivers to every member.
type driverProtocol struct {
	name      string
	build     func(env protocol.Env, g protocol.GroupConfig) ptest.Handler
	multicast bool
}

var driverProtocols = []driverProtocol{
	{name: "pb", build: func(e protocol.Env, g protocol.GroupConfig) ptest.Handler { return pb.New(e, g, 8) }},
	{name: "chain", build: func(e protocol.Env, g protocol.GroupConfig) ptest.Handler { return chain.New(e, g, 8) }},
	{name: "craq", build: func(e protocol.Env, g protocol.GroupConfig) ptest.Handler { return craq.New(e, g, 8) }},
	{name: "vr", build: func(e protocol.Env, g protocol.GroupConfig) ptest.Handler { return vr.New(e, g, 8, vr.Options{}) }},
	{name: "nopaxos", multicast: true, build: func(e protocol.Env, g protocol.GroupConfig) ptest.Handler {
		return nopaxos.New(e, g, 8, nopaxos.Options{})
	}},
}

// countingHandler counts the messages a replica receives.
type countingHandler struct {
	inner ptest.Handler
	n     *int
}

func (c countingHandler) Recv(from simnet.NodeID, msg simnet.Message) {
	*c.n++
	c.inner.Recv(from, msg)
}

// driveProtocolWrite times one committed write end to end through a
// synchronous 3-replica group and counts the messages it took:
// everything a replica received plus everything sent to the switch.
func driveProtocolWrite(p driverProtocol, calls int, key func(int) wire.ObjectID) (ns, msgs float64, err error) {
	const members = 3
	h := ptest.NewHarness(1)
	addrs := []simnet.NodeID{1, 2, 3}
	var received, toSwitch, replies int
	for i, a := range addrs {
		g := protocol.GroupConfig{Replicas: addrs, Self: i, F: (members - 1) / 2}
		h.Register(a, countingHandler{p.build(h.Env(a, i), g), &received})
	}
	var seq uint64
	val := []byte("12345678")
	ns = nsPerCall(calls, func(n int) {
		for i := 0; i < n; i++ {
			seq++
			w := &wire.Packet{
				Op: wire.OpWrite, ObjID: key(i), Seq: wire.Seq{Epoch: 1, N: seq},
				ClientID: 1, ReqID: seq, Value: val,
			}
			if p.multicast {
				for _, a := range addrs {
					h.Inject(0, a, w.Clone())
				}
			} else {
				h.Inject(100, addrs[0], w)
			}
			toSwitch += len(h.ToSwitch)
			for _, sp := range h.ToSwitch {
				if sp.Pkt.Op == wire.OpWriteReply {
					replies++
				}
			}
			h.ToSwitch = h.ToSwitch[:0]
		}
	})
	if replies != int(seq) {
		err = fmt.Errorf("%d of %d writes were answered", replies, seq)
	}
	return ns, float64(received+toSwitch) / float64(seq), err
}

// driveFastRead times the shim's fast-path read: lease gate, §7 check,
// store read, reply.
func driveFastRead(calls int, ids []wire.ObjectID, key func(int) wire.ObjectID) float64 {
	h := ptest.NewHarness(1)
	b := protocol.NewBase(h.Env(1, 0), protocol.GroupConfig{Replicas: []simnet.NodeID{1}}, protocol.ReadAhead, 8)
	for i, id := range ids {
		b.Store.Seed(id, []byte("12345678"), wire.Seq{N: uint64(i + 1)})
	}
	b.Lease.Grant(1, sim.Time(time.Hour))
	// An unmanaged request, reused: the shim's Release is a no-op on it.
	req := &wire.Packet{
		Op: wire.OpRead, ClientID: 1, ReqID: 1,
		LastCommitted: wire.Seq{Epoch: 1, N: 1 << 40}, Flags: wire.FlagFastPath,
	}
	return nsPerCall(calls, func(n int) {
		for i := 0; i < n; i++ {
			req.ObjID = key(i)
			b.HandleFastRead(req, protocol.TargetSelf())
			h.ToSwitch[0].Pkt.Release()
			h.ToSwitch = h.ToSwitch[:0]
		}
	})
}
