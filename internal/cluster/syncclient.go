package cluster

import (
	"errors"

	"harmonia/internal/metrics"
	"harmonia/internal/wire"
)

// SyncClient issues one operation at a time and advances the
// simulation until the reply arrives — the convenient interface for
// examples and interactive use, as opposed to the load generators.
type SyncClient struct {
	c *Cluster
	v *vclient

	done  bool
	reply *wire.Packet // the last reply: an unmanaged copy
}

// ErrTimeout reports an operation that received no reply within the
// synchronous wait budget.
var ErrTimeout = errors.New("cluster: operation timed out")

// NewSyncClient registers a synchronous client.
func (c *Cluster) NewSyncClient() *SyncClient {
	meas := &measurement{
		c:    c,
		lat:  metrics.NewHistogram(),
		rlat: metrics.NewHistogram(),
		wlat: metrics.NewHistogram(),
	}
	s := &SyncClient{c: c}
	s.v = c.newVClients(1, meas, nil, false)[0]
	s.v.onReply = func(pkt *wire.Packet) {
		s.done = true
		s.reply = pkt.Clone()
	}
	return s
}

// do issues the op and drives the simulation to completion, retrying
// on the client's timeout like any other client.
func (s *SyncClient) do(key string, write, del bool, value []byte) (*wire.Packet, error) {
	s.done = false
	s.reply = nil
	s.v.nextReq++
	req := s.v.nextReq
	st := &opState{firstInvoke: s.c.eng.Now(), histIdx: -1}
	st.pkt = wire.Packet{
		ObjID:    wire.HashKey(key),
		Key:      key,
		ClientID: s.v.id,
		ReqID:    req,
	}
	pkt := &st.pkt
	pkt.Group = uint16(s.c.routeObj(pkt.ObjID))
	var valueID int64
	if write {
		pkt.Op = wire.OpWrite
		if del {
			pkt.Flags |= wire.FlagDelete
		}
		s.c.valueCtr++
		valueID = s.c.valueCtr
		if del {
			valueID = -valueID
		}
		if value != nil {
			pkt.Value = append([]byte(nil), value...)
		} else {
			pkt.Value = s.c.varena.encode(valueID)
		}
	} else {
		pkt.Op = wire.OpRead
	}
	if s.c.cfg.RecordHistory {
		st.histIdx = s.c.hist.invoke(pkt.ObjID, write, valueID, int64(st.firstInvoke))
		// For reads the recorder captures the observed value id; raw
		// user values (Set with explicit bytes) are not id-coded, so
		// recording histories and custom values do not mix — the
		// public API documents this.
	}
	s.v.pending.put(req, st)

	// Issue with retries for up to one simulated second.
	deadline := s.c.eng.Now() + 1_000_000_000
	s.c.net.Send(s.v.addr, s.c.switchAddrForObj(pkt.ObjID), s.c.pkts.FlightClone(pkt))
	retry := s.c.eng.After(retryTimeout, func() { s.syncRetry(st) })
	st.timer = retry
	for !s.done && s.c.eng.Now() < deadline {
		if !s.c.eng.Step() {
			break
		}
	}
	st.timer.Stop()
	if !s.done {
		s.v.pending.del(req)
		return nil, ErrTimeout
	}
	return s.reply, nil
}

func (s *SyncClient) syncRetry(st *opState) {
	if _, still := s.v.pending.get(st.pkt.ReqID); !still {
		return
	}
	s.c.net.Send(s.v.addr, s.c.switchAddrForObj(st.pkt.ObjID), s.c.pkts.FlightClone(&st.pkt))
	st.timer = s.c.eng.After(retryTimeout, func() { s.syncRetry(st) })
}

// Get reads a key. found reports whether the key exists.
func (s *SyncClient) Get(key string) (value []byte, found bool, err error) {
	rep, err := s.do(key, false, false, nil)
	if err != nil {
		return nil, false, err
	}
	if rep.Flags&wire.FlagNotFound != 0 {
		return nil, false, nil
	}
	// The reply is a deep copy (onReply), so user code is free to
	// mutate its value.
	return rep.Value, true, nil
}

// Set writes a key.
func (s *SyncClient) Set(key string, value []byte) error {
	_, err := s.do(key, true, false, value)
	return err
}

// Delete removes a key.
func (s *SyncClient) Delete(key string) error {
	_, err := s.do(key, true, true, nil)
	return err
}

// LastGroup returns the replica group that served the last completed
// operation, as stamped into the reply by the switch — the observable
// counterpart of the front-end's slot table (rebalancing tests check
// the two agree).
func (s *SyncClient) LastGroup() int {
	if s.reply == nil {
		return -1
	}
	return int(s.reply.Group)
}

// LastSwitch returns the switch front-end that served the last
// completed operation, as stamped into the reply — the observable
// counterpart of the rack's slot → switch map.
func (s *SyncClient) LastSwitch() int {
	if s.reply == nil {
		return -1
	}
	return int(s.reply.Switch)
}
