package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gtopkssgd/internal/bufpool"
)

// TCPFabric connects n ranks through a full mesh of TCP connections.
// Frames are length-prefixed; each endpoint runs one reader goroutine per
// peer connection that demultiplexes frames into the same mailbox
// structure the in-process fabric uses, so matching semantics are
// identical across fabrics.
//
// Frame layout (little-endian): uint32 tag | uint32 len | len bytes.
//
// Hot-path properties:
//   - each link owns a buffered writer, so a frame costs two buffer
//     writes plus one explicit flush (one syscall) instead of a
//     frame-assembly copy — and a sender streaming chunked payloads
//     coalesces them into few syscalls;
//   - TCP_NODELAY is always on (the net package's default for every TCP
//     connection): the collectives exchange small latency-critical
//     frames, exactly the traffic Nagle's algorithm penalises;
//   - the read loop draws its payload frames from the shared bufpool and
//     hands them to the application, which releases them after the merge
//     consumes them (sparse.PutBuffer) — closing the buffer cycle.
type TCPFabric struct {
	conns []Conn
}

var _ Fabric = (*TCPFabric)(nil)

// TCPOptions configures a TCP fabric or mesh endpoint. Every socket
// runs with TCP_NODELAY on and a linkBuf-sized writer and reader.
type TCPOptions struct {
	// WireVersion is the sparse wire-codec version this endpoint offers
	// (0 or WireV1 = flat frames, WireV3 = delta/varint compound frames).
	// JoinMesh carries the offer in the handshake and the mesh settles
	// on the minimum any member offers; every rank of an in-process
	// fabric (NewTCPWithOptions) offers the same version, so the fabric
	// settles on it.
	WireVersion byte
}

// linkBuf is each link's buffered writer and reader size: it holds a
// full rho=0.001 v1 frame for models up to ~8M parameters.
const linkBuf = 64 << 10

// NewTCP creates a TCP fabric with n ranks listening on ephemeral
// loopback ports and fully meshed, offering wire version 1.
func NewTCP(n int) (*TCPFabric, error) { return NewTCPWithOptions(n, TCPOptions{}) }

// fabricSetupTimeout bounds an in-process fabric's wire-up, so a
// handshake that cannot complete returns an error instead of hanging.
const fabricSetupTimeout = 10 * time.Second

// NewTCPWithOptions is NewTCP with explicit options. It binds n
// loopback listeners and wires them with n concurrent JoinMesh calls —
// the handshake every multi-process mesh runs — so the fabric settles
// on opts.WireVersion exactly as a deployed mesh would.
func NewTCPWithOptions(n int, opts TCPOptions) (*TCPFabric, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: fabric size %d < 1", n)
	}
	listeners := make([]net.Listener, n)
	defer closeAll(listeners)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("transport: listen for rank %d: %w", i, err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}

	ctx, cancel := context.WithTimeout(context.Background(), fabricSetupTimeout)
	defer cancel()
	f := &TCPFabric{conns: make([]Conn, n)}
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for i := range listeners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := JoinMesh(ctx, MeshConfig{Rank: i, Addrs: addrs, Listener: listeners[i], TCP: opts})
			if err != nil {
				// The first failure cancels the other ranks' wire-up.
				once.Do(func() { first = err; cancel() })
				return
			}
			f.conns[i] = conn
		}()
	}
	wg.Wait()
	if first != nil {
		f.Close() //nolint:errcheck // already failing; best-effort cleanup
		return nil, first
	}
	return f, nil
}

// Conn returns rank's endpoint.
func (f *TCPFabric) Conn(rank int) Conn { return f.conns[rank] }

// Size returns the number of ranks.
func (f *TCPFabric) Size() int { return len(f.conns) }

// Close closes every endpoint and underlying socket.
func (f *TCPFabric) Close() error {
	var first error
	for _, c := range f.conns {
		if c == nil {
			continue // a rank whose wire-up failed
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close() //nolint:errcheck // teardown path
		}
	}
}

// peerLink is one TCP connection plus its buffered writer and a write
// lock (frames from concurrent senders must not interleave).
type peerLink struct {
	mu   sync.Mutex
	sock net.Conn
	w    *bufio.Writer
	hdr  [8]byte // frame-header scratch, guarded by mu: a stack array escapes into w.Write
}

// writeFrame buffers one frame — tag, length, payload — on the link's
// writer; the caller holds l.mu and flushes.
func (l *peerLink) writeFrame(tag int, payload []byte) error {
	binary.LittleEndian.PutUint32(l.hdr[0:4], uint32(tag))
	binary.LittleEndian.PutUint32(l.hdr[4:8], uint32(len(payload)))
	if _, err := l.w.Write(l.hdr[:]); err != nil {
		return err
	}
	_, err := l.w.Write(payload)
	return err
}

type tcpConn struct {
	rank, size int
	peers      []*peerLink
	box        *mailbox

	mu      sync.Mutex
	readers sync.WaitGroup
	closed  bool
	// wire is the sparse wire version in force for the whole mesh: the
	// minimum of this endpoint's offer and every per-link negotiation
	// outcome (a full mesh makes that the global minimum at every rank).
	wire byte
}

var (
	_ Conn            = (*tcpConn)(nil)
	_ PooledSender    = (*tcpConn)(nil)
	_ VectoredSender  = (*tcpConn)(nil)
	_ privateReceiver = (*tcpConn)(nil)
)

func (c *tcpConn) attach(peer int, sock net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peers[peer] = &peerLink{
		sock: sock,
		w:    bufio.NewWriterSize(sock, linkBuf),
	}
}

func (c *tcpConn) startReaders() {
	for peer, link := range c.peers {
		if link == nil {
			continue
		}
		c.readers.Add(1)
		go c.readLoop(peer, link.sock)
	}
}

// readLoop demultiplexes incoming frames from one peer into the mailbox.
// Payload buffers come from the shared bufpool; ownership passes to the
// receiving application, which recycles them once consumed. The loop
// exits on any read error (remote close, local close, corrupt frame).
func (c *tcpConn) readLoop(peer int, sock net.Conn) {
	defer c.readers.Done()
	rd := bufio.NewReaderSize(sock, linkBuf)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			return
		}
		tag := int(binary.LittleEndian.Uint32(hdr[0:4]))
		n := binary.LittleEndian.Uint32(hdr[4:8])
		const maxFrame = 1 << 30
		if n > maxFrame {
			return
		}
		payload := bufpool.Get(int(n))
		if _, err := io.ReadFull(rd, payload); err != nil {
			return
		}
		if err := c.box.deposit(mailKey{src: peer, tag: tag}, payload); err != nil {
			return
		}
	}
}

func (c *tcpConn) Rank() int { return c.rank }
func (c *tcpConn) Size() int { return c.size }

// RecvIsPrivate implements the private-receiver capability: every frame
// is read into a buffer owned by this endpoint alone.
func (c *tcpConn) RecvIsPrivate() bool { return true }

// NegotiatedWireVersion implements the wire-version capability: the
// sparse codec version the whole mesh settled on.
func (c *tcpConn) NegotiatedWireVersion() byte { return c.wire }

// noteWire folds one link's negotiated wire version into the mesh-wide
// minimum. Called during wire-up, before the endpoint is shared.
func (c *tcpConn) noteWire(v byte) {
	c.mu.Lock()
	c.wire = minWire(c.wire, normalizeWire(v))
	c.mu.Unlock()
}

// SendIsSynchronous implements the sync-sender capability: Send copies
// the payload into the link's buffered writer and flushes before
// returning, so the caller's buffer is dead the moment Send returns.
func (c *tcpConn) SendIsSynchronous() bool { return true }

func (c *tcpConn) Send(ctx context.Context, dst, tag int, payload []byte) error {
	if err := validatePeer(c.rank, dst, c.size); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	link := c.peers[dst]
	c.mu.Unlock()
	if link == nil {
		return fmt.Errorf("transport: rank %d has no link to %d", c.rank, dst)
	}

	// Header and payload go through the link's buffered writer; the
	// explicit flush bounds Send ("delivered to the fabric") while
	// coalescing header+payload — and back-to-back chunk frames — into
	// single socket writes.
	link.mu.Lock()
	err := link.writeFrame(tag, payload)
	if err == nil {
		err = link.w.Flush()
	}
	link.mu.Unlock()
	if err != nil {
		return fmt.Errorf("transport: send %d->%d: %w", c.rank, dst, err)
	}
	return nil
}

// SendVec implements the VectoredSender capability: every frame's
// header+payload goes through the link's buffered writer under ONE lock
// acquisition with ONE flush at the end, so a whole round's chunk frames
// coalesce into a single socket write (barring buffer overflow) instead
// of one flush — often one syscall — per frame.
func (c *tcpConn) SendVec(ctx context.Context, dst, tag int, frames [][]byte) error {
	if err := validatePeer(c.rank, dst, c.size); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	link := c.peers[dst]
	c.mu.Unlock()
	if link == nil {
		return fmt.Errorf("transport: rank %d has no link to %d", c.rank, dst)
	}

	link.mu.Lock()
	var err error
	for _, payload := range frames {
		if err = link.writeFrame(tag, payload); err != nil {
			break
		}
	}
	if err == nil {
		err = link.w.Flush()
	}
	link.mu.Unlock()
	if err != nil {
		return fmt.Errorf("transport: send %d->%d: %w", c.rank, dst, err)
	}
	return nil
}

// SendPooled implements the PooledSender capability: the payload is
// fully copied into the link's write buffer before Send returns, so it
// can go straight back to the pool.
func (c *tcpConn) SendPooled(ctx context.Context, dst, tag int, payload []byte) error {
	err := c.Send(ctx, dst, tag, payload)
	bufpool.Put(payload)
	return err
}

func (c *tcpConn) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	if err := validatePeer(c.rank, src, c.size); err != nil {
		return nil, err
	}
	return c.box.collect(ctx, mailKey{src: src, tag: tag})
}

func (c *tcpConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	peers := c.peers
	c.mu.Unlock()
	for _, link := range peers {
		if link != nil {
			link.sock.Close() //nolint:errcheck // teardown path
		}
	}
	c.box.close()
	c.readers.Wait()
	return nil
}
