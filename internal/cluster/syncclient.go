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

// NewSyncClient registers a synchronous client: a closed-loop client
// with no generator, so its ops are retried like any load client's and
// the next one waits for the caller.
func (c *Cluster) NewSyncClient() *SyncClient {
	meas := &measurement{
		c:    c,
		lat:  metrics.NewHistogram(),
		rlat: metrics.NewHistogram(),
		wlat: metrics.NewHistogram(),
	}
	s := &SyncClient{c: c}
	s.v = c.newVClients(1, meas, nil, true)[0]
	s.v.onReply = func(pkt *wire.Packet) {
		s.done = true
		s.reply = pkt.Clone()
	}
	return s
}

// do issues the op and drives the simulation until its reply arrives,
// for up to one simulated second.
func (s *SyncClient) do(key string, write, del bool, value []byte) (*wire.Packet, error) {
	s.done = false
	s.reply = nil
	// Explicit value bytes are not ID-coded, so a recorded history and
	// Set with custom values do not mix — the public API documents this.
	st := s.v.newOp(wire.HashKey(key), write, del, value)
	s.v.send(st)
	deadline := s.c.eng.Now() + 1_000_000_000
	for !s.done && s.c.eng.Now() < deadline {
		if !s.c.eng.Step() {
			break
		}
	}
	if !s.done {
		st.timer.Stop()
		s.v.pending.del(st.pkt.ReqID)
		return nil, ErrTimeout
	}
	return s.reply, nil
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
