package wire

import (
	"errors"
	"testing"

	"archos/internal/faultplane"
	"archos/internal/ipc"
)

func TestEpochFenceAdmitsMonotonically(t *testing.T) {
	var f EpochFence
	for _, e := range []uint32{1, 1, 3, 3} {
		if !f.Admit(e) {
			t.Fatalf("epoch %d rejected below the fence %d", e, f.Max())
		}
	}
	if f.Admit(2) {
		t.Error("epoch 2 admitted past a fence at 3")
	}
	if f.Max() != 3 {
		t.Errorf("Max = %d, want 3", f.Max())
	}
}

// fatalCrasher kills on the first recv draw and declares it permanent.
type fatalCrasher struct{ fired bool }

func (c *fatalCrasher) CrashNow(p faultplane.CrashPoint) bool {
	if p == faultplane.CrashOnRecv && !c.fired {
		c.fired = true
		return true
	}
	return false
}

func (c *fatalCrasher) Fatal() bool { return c.fired }

// replicaPair builds two endpoints on separate links sharing one
// clock, both serving an echo-like proc that reports which endpoint
// answered, bundled under one FailoverClient.
func replicaPair(t *testing.T) (*FailoverClient, []*Server, []*Link) {
	t.Helper()
	clock := NewVClock()
	l0 := NewLinkOnClock(ipc.Ethernet10, clock)
	l1 := NewLinkOnClock(ipc.Ethernet10, clock)
	s0, s1 := NewServer(l0, B), NewServer(l1, B)
	for i, s := range []*Server{s0, s1} {
		who := int64(i)
		s.RegisterRaw(1, func(_ Header, _ *Args, rep *Reply) error {
			rep.Int64(who)
			return nil
		})
	}
	c0, c1 := NewClient(l0, A), NewClient(l1, A)
	return NewFailoverClient([]*Client{c0, c1}, []*Server{s0, s1}), []*Server{s0, s1}, []*Link{l0, l1}
}

// callWho calls proc 1 through fc and decodes which endpoint answered.
func callWho(fc *FailoverClient) (int64, error) {
	res, err := fc.CallRaw(1, fc.NewCallArgs())
	if err != nil {
		return -1, err
	}
	who := res.Int64()
	return who, res.Err()
}

func TestFailoverClientSharesIdentity(t *testing.T) {
	fc, _, _ := replicaPair(t)
	if fc.clients[0].ClientID != fc.clients[1].ClientID {
		t.Fatal("endpoint clients do not share one ClientID")
	}
	if fc.clients[0].Fence != fc.clients[1].Fence || fc.clients[0].Fence == nil {
		t.Fatal("endpoint clients do not share one epoch fence")
	}
}

func TestFailoverClientSwitchesOnTransportFailure(t *testing.T) {
	fc, servers, _ := replicaPair(t)
	fc.Tune(3, 0)
	fc.OnFailover(func() int {
		if servers[0].PermanentlyDown() {
			return 1
		}
		return -1
	})
	if who, err := callWho(fc); err != nil || who != 0 {
		t.Fatalf("first call: %v %v, want endpoint 0", who, err)
	}
	servers[0].SetCrasher(&fatalCrasher{fired: true})
	servers[0].ForceCrash()
	if who, err := callWho(fc); err != nil || who != 1 {
		t.Fatalf("call after death: %v %v, want endpoint 1 to answer", who, err)
	}
	if fc.Active() != 1 {
		t.Errorf("Active = %d, want 1", fc.Active())
	}
	if st := fc.Stats(); st.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", st.Failovers)
	}
	// Subsequent calls go straight to the new endpoint.
	if who, err := callWho(fc); err != nil || who != 1 {
		t.Fatalf("settled call: %v %v", who, err)
	}
}

func TestFailoverClientDoesNotMaskServerErrors(t *testing.T) {
	// A RemoteError means the service answered; switching endpoints
	// would retry an op the server deliberately refused.
	fc, servers, _ := replicaPair(t)
	servers[0].RegisterRaw(2, func(Header, *Args, *Reply) error {
		return errors.New("no")
	})
	hookCalled := false
	fc.OnFailover(func() int { hookCalled = true; return 1 })
	_, err := fc.CallRaw(2, fc.NewCallArgs())
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if hookCalled {
		t.Error("failover hook consulted for a server-side error")
	}
	if fc.Active() != 0 {
		t.Errorf("Active = %d, want 0 (no failover)", fc.Active())
	}
}

func TestFailoverClientGivesUpWhenHookDeclines(t *testing.T) {
	fc, servers, _ := replicaPair(t)
	fc.Tune(2, 0)
	fc.OnFailover(func() int { return -1 })
	servers[0].ForceCrash() // recoverable crash, but no restart hook: dead
	if _, err := callWho(fc); !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrCallFailed surfaced", err)
	}
	if fc.Active() != 0 {
		t.Error("endpoint switched although the hook declined")
	}
}

func TestPermanentlyDown(t *testing.T) {
	clock := NewVClock()
	link := NewLinkOnClock(ipc.Ethernet10, clock)
	s := NewServer(link, B)
	if s.PermanentlyDown() {
		t.Fatal("live server reported permanently down")
	}
	// A crash with no restart hook is permanent by construction.
	s.ForceCrash()
	if !s.PermanentlyDown() {
		t.Fatal("hookless crashed server not permanently down")
	}
	// With a restart hook, a crash is only permanent when the crasher
	// declares it fatal.
	s2 := NewServer(NewLinkOnClock(ipc.Ethernet10, clock), B)
	s2.OnRestart(func() { s2.Restart() })
	s2.ForceCrash()
	if s2.PermanentlyDown() {
		t.Fatal("restartable crashed server reported permanently down")
	}
	cr := &fatalCrasher{fired: true}
	s2.SetCrasher(cr)
	if !s2.PermanentlyDown() {
		t.Fatal("fatally crashed server not reported permanently down")
	}
}

func TestSharedClockTicksAcrossLinks(t *testing.T) {
	// Two links on one VClock advance a single timeline: traffic on
	// either moves both Clock() readings identically.
	clock := NewVClock()
	l0 := NewLinkOnClock(ipc.Ethernet10, clock)
	l1 := NewLinkOnClock(ipc.Ethernet10, clock)
	s := NewServer(l0, B)
	s.Register(1, func(a []interface{}) ([]interface{}, error) { return nil, nil })
	c := NewClient(l0, A)
	if _, err := c.Call(s, 1); err != nil {
		t.Fatal(err)
	}
	if l0.Clock() == 0 {
		t.Fatal("traffic did not advance the clock")
	}
	if l0.Clock() != l1.Clock() {
		t.Errorf("links diverged: %v vs %v", l0.Clock(), l1.Clock())
	}
	l1.AdvanceClock(100)
	if l0.Clock() != l1.Clock() {
		t.Errorf("AdvanceClock on one link did not move the other: %v vs %v", l0.Clock(), l1.Clock())
	}
}

func TestFencedStaleReplyIsDiscarded(t *testing.T) {
	// A reply stamped with an epoch below the client's fence must be
	// dropped, not surfaced — the cross-endpoint stale-reply guard.
	link := NewLink(ipc.Ethernet10)
	s := NewServer(link, B)
	s.Register(1, func(a []interface{}) ([]interface{}, error) { return []interface{}{int64(7)}, nil })
	c := NewClient(link, A)
	c.Fence = &EpochFence{}
	if !c.Fence.Admit(5) {
		t.Fatal("setup: fence rejected its own baseline")
	}
	c.MaxRetries = 1
	// The server is in epoch 1 < 5: its replies are stale by fence rule
	// and the call must exhaust its budget rather than accept one.
	if _, err := c.Call(s, 1); !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrCallFailed (stale replies discarded)", err)
	}
	if st := c.Stats(); st.FencedReplies == 0 {
		t.Error("no FencedReplies counted")
	}
}
