// Package transport provides the rank-addressed message-passing substrate
// that replaces MPI point-to-point communication in this reproduction.
//
// Two interchangeable fabrics are provided:
//
//   - an in-process fabric (NewInProc) where each worker is a goroutine
//     and messages travel through shared mailboxes — fast, deterministic,
//     race-detector friendly; used by all experiments; and
//   - a TCP fabric (NewTCP) establishing a full mesh of loopback sockets
//     through JoinMesh, the handshake every multi-process mesh runs —
//     demonstrates that the collectives run unchanged over a real
//     network stack.
//
// Semantics mirror MPI two-sided communication: Send(dst, tag) blocks
// until the message is accepted by the fabric, Recv(src, tag) blocks until
// a matching message arrives, and messages between a fixed (src, dst, tag)
// triple are delivered in send order.
package transport

import (
	"context"
	"errors"
	"fmt"
)

// Conn is one rank's endpoint into a fabric of Size() ranks.
//
// A Conn may be used from multiple goroutines. Recv calls with the same
// (src, tag) from concurrent goroutines race for messages in FIFO order.
type Conn interface {
	// Rank returns this endpoint's identity in [0, Size).
	Rank() int
	// Size returns the number of ranks in the fabric.
	Size() int
	// Send delivers payload to dst with the given tag. The payload is
	// owned by the fabric after Send returns; callers must not mutate it.
	Send(ctx context.Context, dst, tag int, payload []byte) error
	// Recv blocks until a message with the given source and tag arrives
	// and returns its payload.
	Recv(ctx context.Context, src, tag int) ([]byte, error)
	// Close releases the endpoint. Blocked and future calls fail with
	// ErrClosed.
	Close() error
}

// Fabric is a set of connected endpoints, one per rank.
type Fabric interface {
	// Conn returns rank's endpoint.
	Conn(rank int) Conn
	// Size returns the number of ranks.
	Size() int
	// Close closes every endpoint.
	Close() error
}

// PooledSender is an optional Conn capability for zero-allocation send
// paths. SendPooled behaves like Send for a payload drawn from
// internal/bufpool, with one extra promise: the fabric returns the
// buffer to the pool as soon as it has been fully consumed (for TCP,
// once the bytes are in the link's write buffer). Fabrics that hand the
// payload straight to the receiver (in-process mailboxes) do not
// implement it; there, recycling is the receiver's job per the bufpool
// ownership convention.
type PooledSender interface {
	// SendPooled sends payload and recycles it once consumed. The caller
	// must not touch the payload after the call, even on error.
	SendPooled(ctx context.Context, dst, tag int, payload []byte) error
}

// SendPooled sends a bufpool-owned payload through c, recycling it at
// the earliest safe point: inside the fabric when c implements
// PooledSender, otherwise at the receiver (plain Send ownership
// transfer). Either way the caller relinquishes the buffer.
func SendPooled(ctx context.Context, c Conn, dst, tag int, payload []byte) error {
	if ps, ok := c.(PooledSender); ok {
		return ps.SendPooled(ctx, dst, tag, payload)
	}
	return c.Send(ctx, dst, tag, payload)
}

// syncSender is an optional Conn capability: fabrics whose plain Send
// fully consumes the payload before returning (TCP copies it into the
// link's write buffer and flushes) report true. Only such fabrics allow
// a sender to recycle a buffer it passed to Send; on fabrics without
// the capability the payload may still be referenced after Send returns
// (in-process mailboxes hand the receiver the same slice).
type syncSender interface {
	SendIsSynchronous() bool
}

// SendConsumedOnReturn reports whether c's plain Send has fully consumed
// the payload by the time it returns, making sender-side recycling safe.
func SendConsumedOnReturn(c Conn) bool {
	ss, ok := c.(syncSender)
	return ok && ss.SendIsSynchronous()
}

// privateReceiver is an optional Conn capability: fabrics whose Recv
// payloads are private per-receiver copies (each TCP endpoint reads its
// own frame off its own socket) report true, which lets receivers
// recycle even payloads whose contents they forwarded to other ranks.
// In-process fabrics deposit the sender's slice into every destination
// mailbox, so a forwarded payload may be aliased by several ranks and
// must never be recycled.
type privateReceiver interface {
	RecvIsPrivate() bool
}

// PrivateRecv reports whether payloads returned by c.Recv are private
// copies owned exclusively by the receiving rank.
func PrivateRecv(c Conn) bool {
	pr, ok := c.(privateReceiver)
	return ok && pr.RecvIsPrivate()
}

// Sparse wire-codec versions a fabric can negotiate. The version governs
// the frame payload format of internal/sparse (v1 flat frames vs v3
// delta/varint compound frames); the transport itself is agnostic to
// payload contents and only carries the negotiated number.
const (
	// WireV1 is the flat sparse frame format.
	WireV1 byte = 1
	// WireV3 is the compound frame format: delta/varint indices plus a
	// per-frame value codec (fp32, fp16, or quantized levels — see
	// internal/sparse codec v3). Negotiates down like every version:
	// one v1 peer keeps the whole mesh on v1 frames.
	WireV3 byte = 3
	// LatestWire is the newest wire version this build speaks.
	LatestWire = WireV3
)

// normalizeWire maps a configured or offered wire version — an input
// from outside the program — onto a format this build encodes: anything
// below v3 (unset, v1, or the retired version 2) means v1, the newest
// format both ends still speak; anything newer clamps to LatestWire.
func normalizeWire(v byte) byte {
	if v < WireV3 {
		return WireV1
	}
	return LatestWire
}

// wireVersioned is an optional Conn capability: fabrics that negotiate
// (or are configured with) a sparse wire-codec version report it here.
type wireVersioned interface {
	NegotiatedWireVersion() byte
}

// NegotiatedWireVersion reports the sparse wire version every rank of
// c's fabric agreed to speak. Fabrics without the capability — or with
// an unset version — default to WireV1, so codec-aware collectives stay
// compatible with any Conn implementation.
func NegotiatedWireVersion(c Conn) byte {
	if wv, ok := c.(wireVersioned); ok {
		if v := wv.NegotiatedWireVersion(); v != 0 {
			return v
		}
	}
	return WireV1
}

// Errors shared by fabric implementations.
var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrSelfSend is returned when a rank addresses itself; the
	// collectives never need loopback sends and requiring the check
	// catches index arithmetic bugs early.
	ErrSelfSend = errors.New("transport: send to self")
)

// validatePeer checks that peer is a legal remote rank for self.
func validatePeer(self, peer, size int) error {
	if peer < 0 || peer >= size {
		return fmt.Errorf("transport: rank %d out of range [0,%d)", peer, size)
	}
	if peer == self {
		return ErrSelfSend
	}
	return nil
}
