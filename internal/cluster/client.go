package cluster

import (
	"time"

	"harmonia/internal/metrics"
	"harmonia/internal/sim"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

// Dist selects a key distribution.
type Dist int

// Key distributions.
const (
	Uniform Dist = iota
	Zipf09       // zipf, θ = 0.9 (the paper's skewed workload)
	Zipf12       // zipf, θ = 1.2 (heavy-tailed hot-spot workload)
)

// Mode selects the load-generation discipline.
type Mode int

// Load modes.
const (
	// Closed runs N virtual clients with one outstanding op each;
	// throughput saturates at the bottleneck's capacity. Used for the
	// throughput figures.
	Closed Mode = iota
	// Open issues ops at a Poisson rate regardless of completions.
	// Used for the latency-vs-throughput figures.
	Open
)

// LoadSpec describes a measurement run.
type LoadSpec struct {
	Mode       Mode
	Clients    int     // closed-loop virtual clients
	Rate       float64 // open-loop ops/second
	Duration   time.Duration
	Warmup     time.Duration
	WriteRatio float64
	Keys       int
	Dist       Dist
	// PinGroups shards load generation the way the data is sharded.
	// Closed loop: the Clients are split across the replica groups in
	// proportion to their capacity weights (evenly, for a uniform
	// cluster) and each sub-pool draws keys only from its group's
	// slice of the key space. This is the sharded load-generation mode
	// — groups saturate independently instead of the whole fleet
	// throttling on the slowest shard, and a 7-replica group receives
	// proportionally more offered load than a 3-replica one — and the
	// per-group completions land in Report.GroupOps. Open loop: each
	// Poisson arrival first draws a group in proportion to its weight,
	// then a key from that group's slice, so big shards are offered
	// proportionally more; the offered split lands in
	// Report.GroupOffered. Ignored for single-group clusters.
	PinGroups bool
	// Bucket, when > 0, also collects a completion time series
	// (Fig. 10).
	Bucket time.Duration
}

func (s *LoadSpec) fillDefaults() {
	if s.Clients <= 0 {
		s.Clients = 64
	}
	if s.Duration <= 0 {
		s.Duration = 50 * time.Millisecond
	}
	if s.Keys <= 0 {
		s.Keys = 100000
	}
	if s.Warmup < 0 {
		s.Warmup = 0
	}
}

// Report summarizes a run. Rates count only completions inside the
// measurement window (after warmup).
type Report struct {
	Duration        time.Duration
	Ops             uint64
	Reads, Writes   uint64
	Throughput      float64 // ops per second
	ReadThroughput  float64
	WriteThroughput float64
	Latency         *metrics.Histogram
	ReadLatency     *metrics.Histogram
	WriteLatency    *metrics.Histogram
	Retries         uint64
	// Dropped counts writes the switch rejected with a FlagDropped
	// reply (dirty set full); each was reissued by the client within
	// dropBackoff, without waiting for the retry timeout. Distinct from
	// Retries, which counts timeout-driven resends.
	Dropped    uint64
	Unanswered uint64 // open-loop ops with no reply by run end
	// Rebalances counts slot moves the autonomous rebalancer completed
	// during the measurement window (0 unless Config.AutoRebalance).
	Rebalances uint64
	Series     *metrics.TimeSeries
	// GroupOps counts completions per replica group (index = group);
	// the aggregate load generator's view of how the shards shared the
	// work. Always length Config.Groups.
	GroupOps []uint64
	// GroupOffered counts operations issued per replica group inside
	// the measurement window by a sharded (PinGroups) open-loop run —
	// the offered-load split, before any completions. Nil otherwise.
	GroupOffered []uint64
	// LatencyBreakdown decomposes the sampled ops' end-to-end latency
	// into the five trace phases (queue, service, network, retry,
	// frozen-stall — see PhaseBreakdown for each phase's boundaries),
	// overall and sliced per group and per switch. Nil unless
	// Config.Trace armed span sampling; the histograms then cover the
	// 1-in-SampleEvery traced subset of Ops.
	LatencyBreakdown *LatencyBreakdown
}

// opState tracks one in-flight logical operation. The master packet is
// embedded by value and the records are pooled on the cluster, so a
// completed op recycles both in one free-list push; what actually
// reaches the network is a per-transmission FlightClone from the
// cluster's packet pool.
type opState struct {
	pkt         wire.Packet
	client      *vclient // the issuer, whom retry hands the op back to
	firstInvoke sim.Time
	timer       sim.Timer
	histIdx     int // recorder slot, -1 when not recording
}

// putOp recycles a completed op. Zeroing drops the payload reference
// (the store owns it now) and leaves an inert zero Timer; the stopped
// retry event may still point here but dead events never fire.
func (c *Cluster) putOp(st *opState) {
	*st = opState{}
	c.opFree.Put(st)
}

// vclient is one virtual client: a closed-loop issuer or a slot pool
// for open-loop ops.
type vclient struct {
	c    *Cluster
	id   uint32
	addr simnet.NodeID

	gen     *opGen
	pending pendingTab
	nextReq uint64

	measuring *measurement
	// closedLoop clients keep one op outstanding and arm a retry timer
	// on every send; one with a generator issues its next op on each
	// reply, one without (SyncClient) leaves that to its caller.
	closedLoop bool

	// onReply, when set, observes every matched reply (SyncClient).
	onReply func(pkt *wire.Packet)
}

// opGen produces the next operation from the workload spec: keys draws
// an index into ids — the whole key space's object IDs, or one group's
// shard of them, in which the index is a shard-local rank. Stateless
// (its keys draw from the engine's RNG), it is shared by every client
// it feeds.
type opGen struct {
	c     *Cluster
	ids   []wire.ObjectID
	keys  keyGen
	ratio float64
}

type keyGen interface{ Next() int }

func (g *opGen) next() (id wire.ObjectID, write bool) {
	return g.ids[g.keys.Next()], g.c.eng.Rand().Float64() < g.ratio
}

// measurement accumulates the report during the window.
type measurement struct {
	c          *Cluster
	start      sim.Time
	collect    bool
	rebal0     uint64 // cluster rebalance counter at window start
	ops        uint64
	reads      uint64
	writes     uint64
	retriesCnt uint64
	droppedCnt uint64
	groupOps   []uint64
	// groupOffered counts issued (not completed) ops per group; only a
	// sharded open-loop run allocates and fills it.
	groupOffered []uint64
	lat          *metrics.Histogram
	rlat         *metrics.Histogram
	wlat         *metrics.Histogram
	series       *metrics.TimeSeries
	// bd receives the sampled spans' phase decomposition; nil unless
	// the cluster's tracer is armed (see breakdown.go).
	bd *LatencyBreakdown
}

func (m *measurement) observe(write bool, group int, d time.Duration, at sim.Time) {
	if !m.collect {
		return
	}
	m.ops++
	// Groups added elastically mid-run extend the counter vector on
	// first completion; group counts only ever grow, so the report's
	// index = group ID mapping stays stable.
	for group >= len(m.groupOps) && len(m.groupOps) < len(m.c.groups) {
		m.groupOps = append(m.groupOps, 0)
	}
	if group >= 0 && group < len(m.groupOps) {
		m.groupOps[group]++
	}
	m.lat.Observe(d)
	if write {
		m.writes++
		m.wlat.Observe(d)
	} else {
		m.reads++
		m.rlat.Observe(d)
	}
	if m.series != nil {
		m.series.Add(time.Duration(at - m.start))
	}
}

// Recv implements simnet.Handler for the client node. The client is
// the reply's terminal consumer: it releases the packet after matching
// it against the pending table (and showing it to an onReply
// observer, which keeps nothing).
func (v *vclient) Recv(from simnet.NodeID, msg simnet.Message) {
	pkt, ok := msg.(*wire.Packet)
	if !ok {
		return
	}
	if !pkt.IsReply() {
		pkt.Release()
		return
	}
	st, ok := v.pending.get(pkt.ReqID)
	if !ok {
		pkt.Release() // late duplicate of an already-completed op
		return
	}
	if pkt.Op == wire.OpWriteReply && pkt.Flags&wire.FlagDropped != 0 {
		// The switch dropped this write (dirty set full) and said so:
		// the op is not complete. Reissue it within dropBackoff — the
		// reply already cost a round trip, so there is no point burning
		// the rest of a retry timeout — and leave the pending entry (same
		// ReqID, same value: one logical op) in place. The delay is
		// random: writers that all reissued one round trip after each
		// drop would keep their phases, and the one always last to reach
		// a freed slot would never win it. It runs on the op's timer, so
		// the drops of two copies in flight (a retry's and its
		// original's) bring one reissue.
		v.measuring.noteDropped()
		st.timer.Stop()
		if st.pkt.Span != 0 {
			v.c.tracer.StampResend(st.pkt.Span, int32(v.addr))
		}
		d := time.Duration(v.c.eng.Rand().Int63n(int64(dropBackoff)))
		st.timer = v.c.eng.AfterCallT(d, reissue, st)
		pkt.Release()
		return
	}
	v.pending.del(pkt.ReqID)
	st.timer.Stop()
	now := v.c.eng.Now()
	isWrite := st.pkt.Op == wire.OpWrite
	v.measuring.observe(isWrite, int(pkt.Group), time.Duration(now-st.firstInvoke), now)
	if st.pkt.Span != 0 {
		// Close the span and fold its phase decomposition, then recycle
		// the slot; any late duplicate still carrying this reference is
		// rejected by the generation check from here on.
		if sp := v.c.tracer.Finish(st.pkt.Span, int32(v.addr)); sp != nil {
			v.measuring.observeSpan(sp, int(pkt.Group))
		}
		v.c.tracer.Release(st.pkt.Span)
	}
	if st.histIdx >= 0 {
		var observed int64
		if pkt.Op == wire.OpReadReply && pkt.Flags&wire.FlagNotFound == 0 {
			observed = decodeValue(pkt.Value)
		}
		v.c.hist.ret(st.histIdx, int64(now), observed)
	}
	v.c.putOp(st)
	if v.onReply != nil {
		v.onReply(pkt)
	}
	pkt.Release()
	if v.closedLoop && v.gen != nil {
		v.issueNext()
	}
}

// issueNext starts the next closed-loop op.
func (v *vclient) issueNext() {
	v.issue(v.gen.next())
}

// issue sends one load operation on object id, sampling it for
// tracing, and arms the retry timer (closed loop only; open-loop ops
// are never retried).
func (v *vclient) issue(id wire.ObjectID, write bool) {
	st := v.newOp(id, write, false, nil)
	if t := v.c.tracer; t != nil {
		st.pkt.Span = t.Sample(write, int16(st.pkt.Group),
			int16(v.c.rack.SwitchOfObj(id)), int32(v.addr))
	}
	v.send(st)
}

// newOp builds the client's next operation on object id, pending until
// its reply: a read, or a write (a delete if del) carrying value, or a
// fresh value ID's bytes when value is nil, invoked in the history if
// one is recorded. Like the paper's client library after hashing a key
// (§6.1), it carries only the ID.
func (v *vclient) newOp(id wire.ObjectID, write, del bool, value []byte) *opState {
	v.nextReq++
	st := v.c.opFree.Get() // zeroed by putOp
	st.client = v
	st.firstInvoke = v.c.eng.Now()
	st.histIdx = -1
	// The group is a routing guess from the client's view of the slot
	// table; the switch front-end overrides it from its authoritative
	// table, so a stale guess costs nothing.
	st.pkt = wire.Packet{
		Op: wire.OpRead, ObjID: id, Group: uint16(v.c.routeObj(id)),
		ClientID: v.id, ReqID: v.nextReq,
	}
	var valueID int64
	if write {
		st.pkt.Op = wire.OpWrite
		v.c.valueCtr++
		valueID = v.c.valueCtr
		if del {
			st.pkt.Flags = wire.FlagDelete
			valueID = -valueID
		}
		if value != nil {
			st.pkt.Value = append([]byte(nil), value...)
		} else {
			st.pkt.Value = v.c.varena.encode(valueID)
		}
	}
	if v.c.cfg.RecordHistory {
		st.histIdx = v.c.hist.invoke(id, write, valueID, int64(st.firstInvoke))
	}
	v.pending.put(v.nextReq, st)
	return st
}

// send transmits the op and, on a closed-loop client, arms its retry
// timer.
func (v *vclient) send(st *opState) {
	v.c.net.Send(v.addr, v.c.switchAddrForObj(st.pkt.ObjID), v.c.pkts.FlightClone(&st.pkt))
	if v.closedLoop {
		st.timer = v.c.eng.AfterCallT(retryTimeout, retry, st)
	}
}

// reissue sends a dropped write again once its backoff has passed; a
// reply that completes the op first stops it.
func reissue(a any) {
	st := a.(*opState)
	st.client.send(st)
}

// retry is every client's retry callback: the op names its client, so
// arming a retry timer captures nothing per op or client.
func retry(a any) {
	st := a.(*opState)
	v := st.client
	if _, still := v.pending.get(st.pkt.ReqID); !still {
		return
	}
	v.measuring.noteRetry()
	if st.pkt.Span != 0 {
		v.c.tracer.StampResend(st.pkt.Span, int32(v.addr))
	}
	v.send(st)
}

func (m *measurement) noteRetry() {
	if m.collect {
		m.retriesCnt++
	}
}

func (m *measurement) noteDropped() {
	if m.collect {
		m.droppedCnt++
	}
}

func (m *measurement) noteOffered(group int) {
	if !m.collect || group < 0 {
		return
	}
	for group >= len(m.groupOffered) && len(m.groupOffered) < len(m.c.groups) {
		m.groupOffered = append(m.groupOffered, 0)
	}
	if group < len(m.groupOffered) {
		m.groupOffered[group]++
	}
}

// RunLoad executes a measurement and returns the report. The cluster
// keeps running afterwards; RunLoad can be called repeatedly (e.g.
// around failure injection).
func (c *Cluster) RunLoad(spec LoadSpec) Report {
	return c.RunLoads([]LoadSpec{spec})[0]
}

// RunLoads drives several load groups concurrently through one shared
// warmup+measurement window and reports each separately. The paper's
// mixed-rate experiments (read throughput under a fixed write rate,
// Figs. 6a and 9) combine a closed-loop read group with an open-loop
// write group this way. Warmup and Duration are taken from the first
// spec.
func (c *Cluster) RunLoads(specs []LoadSpec) []Report {
	if len(specs) == 0 {
		return nil
	}
	for i := range specs {
		specs[i].fillDefaults()
	}
	window := specs[0].Duration
	warmup := specs[0].Warmup

	type group struct {
		meas    *measurement
		clients []*vclient
	}
	groups := make([]group, len(specs))
	for gi := range specs {
		spec := specs[gi]
		meas := &measurement{
			c:        c,
			groupOps: make([]uint64, len(c.groups)),
			lat:      metrics.NewHistogram(),
			rlat:     metrics.NewHistogram(),
			wlat:     metrics.NewHistogram(),
		}
		if spec.Bucket > 0 {
			meas.series = metrics.NewTimeSeries(spec.Bucket)
		}
		if c.tracer != nil {
			meas.bd = newLatencyBreakdown(len(c.groups), c.rack.Switches())
		}
		newKeysN := func(n int) keyGen {
			switch spec.Dist {
			case Zipf09:
				return newZipfGen(n, 0.9, c.eng.Rand())
			case Zipf12:
				return newZipfGen(n, 1.2, c.eng.Rand())
			default:
				return newUniformGen(n, c.eng.Rand())
			}
		}
		newKeys := func() keyGen { return newKeysN(spec.Keys) }
		ids := keyTab(spec.Keys)
		var clients []*vclient
		if spec.Mode == Closed {
			if spec.PinGroups && len(c.groups) > 1 {
				// Sharded load generation: the pool is split across the
				// groups by capacity weight — the client-side router's
				// service-rate calibration — and each sub-pool is
				// confined to its group's slice of the key space
				// (shard-local ranks keep the distribution's shape
				// within the slice). Uniform weights reproduce the
				// historical even split exactly.
				owned := c.ownedKeyIDs(spec.Keys)
				shares := workload.Apportion(spec.Clients, c.GroupWeights())
				for g, shard := range owned {
					if len(shard) == 0 {
						continue // degenerate: shard owns no keys
					}
					gen := &opGen{c: c, ids: shard, keys: newKeysN(len(shard)), ratio: spec.WriteRatio}
					clients = append(clients, c.newVClients(shares[g], meas, gen, true)...)
				}
			} else {
				clients = c.newVClients(spec.Clients, meas, &opGen{c: c, ids: ids, keys: newKeys(), ratio: spec.WriteRatio}, true)
			}
			for _, v := range clients {
				v.issueNext()
			}
		} else {
			// Open loop: one Poisson arrival stream drives the whole
			// cluster — a single event-queue control plane in front of
			// the per-group data planes. nextOp decides what each
			// arrival issues.
			clients = c.newVClients(1, meas, nil, false)
			v := clients[0]
			var nextOp func()
			if spec.PinGroups && len(c.groups) > 1 {
				// Sharded open loop: each arrival first draws a replica
				// group in proportion to its capacity weight, then a
				// key from that group's slice of the key space
				// (shard-local ranks keep the distribution's shape
				// within the slice). A weight-blind uniform key draw
				// would under-offer big shards — a 2:1 weighted rack
				// must see a 2:1 offered split — so the group draw goes
				// through the apportioned sampler and the realized
				// split lands in Report.GroupOffered.
				// The split is keyed to the topology epoch: an elastic
				// membership change mid-run (group added, retired, or
				// re-weighted) rebuilds the group sampler and the
				// shard-local key generators on the next arrival, so
				// offered load follows the LIVE weights within one op.
				var gens []*opGen
				var pick *workload.WeightedIndex
				var topoSeen uint64
				rebuild := func() {
					topoSeen = c.rack.TopoEpoch()
					owned := c.ownedKeyIDs(spec.Keys)
					weights := c.GroupWeights()
					gens = make([]*opGen, len(owned))
					for g, shard := range owned {
						if len(shard) == 0 {
							// Degenerate: the shard owns no keys and can
							// never be offered work.
							weights[g] = 0
							continue
						}
						gens[g] = &opGen{c: c, ids: shard, keys: newKeysN(len(shard)), ratio: spec.WriteRatio}
					}
					pick = workload.NewWeightedIndex(weights, c.eng.Rand())
				}
				rebuild()
				meas.groupOffered = make([]uint64, len(c.groups))
				nextOp = func() {
					if c.rack.TopoEpoch() != topoSeen {
						rebuild()
					}
					g := pick.Next()
					meas.noteOffered(g)
					v.issue(gens[g].next())
				}
			} else {
				v.gen = &opGen{c: c, ids: ids, keys: newKeys(), ratio: spec.WriteRatio}
				nextOp = func() { v.issueNext() }
			}
			rate := spec.Rate
			// Poisson arrivals at rate.
			var arrive func()
			stop := c.eng.Now() + sim.Time(warmup+window)
			arrive = func() {
				if c.eng.Now() >= stop {
					return
				}
				nextOp()
				gap := time.Duration(c.eng.Rand().ExpFloat64() / rate * float64(time.Second))
				c.eng.After(gap, arrive)
			}
			c.eng.After(0, arrive)
		}
		groups[gi] = group{meas: meas, clients: clients}
	}

	// Shared warmup, then one measurement window for all groups.
	c.eng.RunFor(warmup)
	for _, g := range groups {
		g.meas.start = c.eng.Now()
		g.meas.collect = true
		g.meas.rebal0 = c.rebalanced
	}
	c.eng.RunFor(window)
	out := make([]Report, len(groups))
	for gi, g := range groups {
		g.meas.collect = false
		rep := Report{
			Duration: window,
			Ops:      g.meas.ops, Reads: g.meas.reads, Writes: g.meas.writes,
			Throughput:      float64(g.meas.ops) / window.Seconds(),
			ReadThroughput:  float64(g.meas.reads) / window.Seconds(),
			WriteThroughput: float64(g.meas.writes) / window.Seconds(),
			Latency:         g.meas.lat, ReadLatency: g.meas.rlat, WriteLatency: g.meas.wlat,
			Retries:          g.meas.retriesCnt,
			Dropped:          g.meas.droppedCnt,
			Rebalances:       c.rebalanced - g.meas.rebal0,
			Series:           g.meas.series,
			GroupOps:         g.meas.groupOps,
			GroupOffered:     g.meas.groupOffered,
			LatencyBreakdown: g.meas.bd,
		}
		// Tear down: detach clients so the next run starts clean.
		for _, v := range g.clients {
			v.closedLoop = false
			v.pending.each(func(st *opState) {
				st.timer.Stop()
				if st.pkt.Span != 0 {
					// Unanswered op: give its span back so successive
					// runs never drain the table. A straggler reply
					// carrying the stale reference stamps nothing.
					c.tracer.Release(st.pkt.Span)
					st.pkt.Span = 0
				}
				rep.Unanswered++
			})
		}
		out[gi] = rep
	}
	return out
}

// newVClients registers n fresh virtual clients drawing from gen, built
// in blocks (their nodes too, from the network's list), so a load group
// costs the same few allocations however many clients it has.
func (c *Cluster) newVClients(n int, meas *measurement, gen *opGen, closed bool) []*vclient {
	vs, ptrs := make([]vclient, n), make([]*vclient, n)
	keys := make([]uint64, n*pendingTabMinSize)
	vals := make([]*opState, n*pendingTabMinSize)
	for i := range vs {
		c.clients++ // 0 is reserved for the priming client
		v, lo, hi := &vs[i], i*pendingTabMinSize, (i+1)*pendingTabMinSize
		*v = vclient{c: c, id: c.clients, gen: gen, measuring: meas, closedLoop: closed}
		v.addr = clientBase + simnet.NodeID(v.id)
		v.pending.keys, v.pending.vals = keys[lo:hi:hi], vals[lo:hi:hi]
		c.net.AddNode(v.addr, v, simnet.ProcConfig{Workers: 0})
		ptrs[i] = v
	}
	return ptrs
}
