package transport

import (
	"runtime"
	"sync"
	"time"

	"slb/internal/ring"
)

// Memory is the in-process backend: every link is one SPSC ring of Msg
// values, so a SendSlab is a Grant/copy/Publish and a RecvSlab an
// Acquire/copy/Release, with no per-message allocation and no framing.
// It is the engine's default fabric; the TCP backend adds only the wire
// cost on top of the same receive rings.
type Memory struct {
	mu    sync.Mutex
	links map[string]*Link
}

// NewMemory returns an empty in-memory transport.
func NewMemory() *Memory {
	return &Memory{links: make(map[string]*Link)}
}

// Open implements Transport. Capacity is rounded up to the ring's
// power-of-two minimum.
func (t *Memory) Open(name string, capacity int) (*Link, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.links[name]; ok {
		return l, nil
	}
	if capacity < 2 {
		capacity = 2
	}
	r := ring.New[Msg](capacity)
	l := &Link{Name: name, Sender: (*memSender)(r), Receiver: (*memReceiver)(r)}
	t.links[name] = l
	return l, nil
}

// Close implements Transport. Any still-open senders are closed so
// stuck receivers observe done.
func (t *Memory) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.links {
		l.Sender.(*memSender).ring().Close()
	}
	t.links = make(map[string]*Link)
	return nil
}

type memSender ring.SPSC[Msg]

func (s *memSender) ring() *ring.SPSC[Msg] { return (*ring.SPSC[Msg])(s) }

// SendSlab copies msgs into the ring, spinning (Gosched, then brief
// sleeps) while it is full, so a full link applies backpressure rather
// than dropping or growing.
func (s *memSender) SendSlab(msgs []Msg) error {
	r := s.ring()
	spins := 0
	for len(msgs) > 0 {
		dst := r.Grant(len(msgs))
		if dst == nil {
			backoff(&spins)
			continue
		}
		spins = 0
		copy(dst, msgs)
		r.Publish(len(dst))
		msgs = msgs[len(dst):]
	}
	return nil
}

// Flush is a no-op: ring publishes are immediately visible.
func (s *memSender) Flush() error { return nil }

// Grant implements SlabGranter: it exposes the ring's in-place write
// cycle so producers can construct messages directly in link memory.
func (s *memSender) Grant(max int) []Msg { return s.ring().Grant(max) }

// Publish implements SlabGranter.
func (s *memSender) Publish(n int) { s.ring().Publish(n) }

// Close implements Sender.
func (s *memSender) Close() error {
	s.ring().Close()
	return nil
}

type memReceiver ring.SPSC[Msg]

func (c *memReceiver) ring() *ring.SPSC[Msg] { return (*ring.SPSC[Msg])(c) }

// Len implements Receiver.
func (c *memReceiver) Len() int { return c.ring().Len() }

// RecvSlab implements Receiver.
func (c *memReceiver) RecvSlab(buf []Msg) (int, bool) {
	r := c.ring()
	src := r.Acquire(len(buf))
	if len(src) == 0 {
		return 0, r.Drained()
	}
	n := copy(buf, src)
	r.Release(n)
	return n, false
}

// backoff yields politely while a link is full (producer side): cheap
// Gosched first so a momentarily busy peer costs almost nothing, short
// sleeps once the stall is real.
func backoff(spins *int) {
	*spins++
	if *spins < 64 {
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}
