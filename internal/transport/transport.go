// Package transport is the edge fabric for the goroutine engine: it
// moves slabs of tuples between spouts, bolts, and reducer shards over
// named point-to-point links, behind one interface with two backends.
//
// The memory backend maps each link onto one internal/ring SPSC ring of
// Msg values — a Grant/Publish copy on send and an Acquire/copy/Release
// on receive — so steady-state traffic allocates nothing and stays
// within a few percent of writing the ring directly. The TCP backend
// carries the same slabs over loopback (or real) connections using the
// columnar wire-format-v2 codec (frame.go): struct-of-arrays frames
// over a persistent per-link key dictionary with an epoch-reset
// protocol, so a hot key's bytes cross the wire once per epoch and a
// steady-state message costs a few bytes. The sender is pipelined —
// the caller's goroutine encodes into a coalescing buffer while a
// dedicated writer goroutine moves filled buffers to the kernel with
// vectored writes (tcp.go) — and a per-connection reader goroutine
// decodes frames into an SPSC ring through a reusable key arena, so
// the receive side is identical in shape to the memory backend and
// steady-state decode allocates nothing. Per-link telemetry (tx/rx
// bytes, frames, messages, flushes, send stalls, dictionary hits and
// resets) lands in the engine's internal/telemetry registry.
//
// # Contract
//
// Links are single-producer single-consumer: exactly one goroutine
// sends on a link's Sender and exactly one receives on its Receiver.
// SendSlab copies the slab in (possibly blocking while the link is
// full); Flush pushes any coalesced bytes toward the peer — for the
// TCP backend it hands them to the writer stage and returns without
// waiting for the kernel (per-link ordering is preserved, and write
// errors surface on a later SendSlab/Flush/Close); for the memory
// backend it is a no-op, sends being immediately visible. Close marks
// the producer side done; after the receiver drains every in-flight
// message, RecvSlab reports done. RecvSlab is non-blocking — it
// returns 0 when no messages are ready — because consumers multiplex
// many links round-robin (dspe's executors sweep their bolts' links).
// Message order is preserved per link; nothing is dropped.
//
// # Delivery under faults
//
// The TCP backend keeps that contract when connections die. Every
// coalescing buffer carries a sequence number; the receiver streams
// cumulative acks back and the sender retains a bounded window of
// unacked buffers (TCPConfig.RetainedBufs). When a connection is lost
// — write error, receiver-detected sequence gap, or ack timeout
// (TCPConfig.ResendTimeout) — the sender redials under jittered
// exponential backoff (TCPConfig.RedialBackoff, RedialAttempts,
// MaxReconnects), resets the codec's dictionary epoch (a fresh
// connection always starts a fresh epoch: the documented resync point
// that makes mid-stream loss unable to desynchronize the
// dictionaries), reads the resync handshake — each accepted connection
// opens with the receiver's current cumulative ack, before any data —
// and replays only what that mark says is still undelivered. The wire
// is therefore at-least-once; the receiver's sequence state, which
// persists across connections, discards duplicates at the receive
// edge, so the link as a whole delivers every message exactly once, in
// order. With MaxReconnects < 0 a lost connection is a hard error on
// that link (Link.Err) — never silent loss. The Chaos wrapper injects
// a deterministic fault schedule (seeded drops, periodic severs,
// accept delays) over either backend for tests and soaks, and the
// recovery machinery reports transport_reconnects_total,
// transport_retransmit_frames_total, transport_retransmit_bytes_total,
// transport_dup_msgs_dropped_total and transport_outage_seconds
// per link.
package transport

import (
	"errors"
	"sync/atomic"
)

// Msg is the one tuple shape that crosses links. The dataplane maps
// spout→bolt tuples onto it (Weight = per-message value, Emit = emit
// timestamp in ns when latency-sampled, Src = producing source, or -1
// for a watermark tick) and bolt→reducer partials onto it (Weight =
// partial count, Val0/Val1 = the accumulated aggregation value, Src =
// producing worker). Key travels alongside its digest because finals
// are keyed by string; the frame codec dictionary-encodes it so a hot
// key's bytes cross a TCP link once per dictionary reset, not once per
// message.
type Msg struct {
	Dig    uint64
	Window int64
	Weight int64
	Val0   uint64
	Val1   uint64
	Emit   int64
	Src    int32
	Key    string
}

// Sender is the producer end of one link.
type Sender interface {
	// SendSlab copies the slab onto the link, blocking while the link
	// is full. It returns an error only when the link is broken (peer
	// gone, connection failed); the memory backend never fails.
	SendSlab(msgs []Msg) error
	// Flush forces any coalesced bytes out to the peer.
	Flush() error
	// Close flushes, then marks the producer done. The receiver drains
	// in-flight messages and then observes done.
	Close() error
}

// SlabGranter is an optional Sender fast path. In-process backends
// expose the underlying ring's grant/publish cycle so producers can
// construct messages directly in link memory — the zero-copy path —
// instead of staging a slab and having SendSlab copy it. Grant returns
// up to max contiguous writable slots (nil when the link is full);
// Publish commits the first n of the most recent grant. Granted slots
// that are never published are simply reused by the next Grant.
// Senders that cross a process boundary (TCP) do not implement it:
// their encoder must read a staged slab anyway.
type SlabGranter interface {
	Grant(max int) []Msg
	Publish(n int)
}

// Receiver is the consumer end of one link.
type Receiver interface {
	// RecvSlab copies up to len(buf) ready messages into buf and
	// returns how many. It never blocks: n == 0 means nothing is ready
	// right now. done reports that the producer closed AND every
	// message has been received; once done, n is always 0.
	RecvSlab(buf []Msg) (n int, done bool)
	// Len reports how many received messages are ready for RecvSlab:
	// a snapshot, safe to read from any goroutine (queue-depth gauges
	// sample it while the consumer runs).
	Len() int
}

// Link is one named point-to-point edge.
type Link struct {
	Name string
	Sender
	Receiver

	// err is the link-scoped first hard error (TCP backend); nil for
	// backends that cannot fail per-link.
	err *atomic.Pointer[error]
}

// Err reports the link's first hard delivery error, if any. Errors are
// scoped per link: one broken peer surfaces here (and on the
// transport's aggregate Err) without poisoning sibling links' sends.
// Backends that cannot fail per-link (memory) always report nil.
func (l *Link) Err() error {
	if l.err == nil {
		return nil
	}
	if p := l.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Transport hands out links by name and owns their shared resources.
type Transport interface {
	// Open creates (or returns the existing) link with this name and
	// per-link buffer capacity of at least cap messages. Both ends are
	// usable immediately; the capacity is rounded up as the backend
	// requires. Open must be called before goroutines race on the link.
	Open(name string, cap int) (*Link, error)
	// Close tears down every link and shared resource. Senders must be
	// closed first; Close does not wait for unread messages.
	Close() error
}

// ErrClosed is returned by sends on a link whose transport or peer is
// already gone.
var ErrClosed = errors.New("transport: link closed")
