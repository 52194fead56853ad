package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MeshConfig describes one rank's view of a TCP mesh for a single
// cluster epoch. Every TCP mesh is wired from one: each process of an
// elastic cluster joins with its own, and NewTCPWithOptions joins all n
// ranks of an in-process fabric. The caller may own the data listener
// (so the same host:port survives across epochs) and every connection
// handshake is stamped with the epoch, so stragglers from a previous
// epoch can never join the wrong mesh.
type MeshConfig struct {
	// Rank is this worker's rank in [0, len(Addrs)).
	Rank int
	// Addrs lists one data-plane host:port per rank, indexed by rank.
	Addrs []string
	// Epoch stamps every handshake. Dials and accepts whose epoch does
	// not match are dropped and retried, which is what makes rebuilding
	// a mesh safe while peers are still tearing down the previous one.
	Epoch uint64
	// Listener, when non-nil, is the caller-owned listener for
	// Addrs[Rank]. JoinMesh never closes it, so an elastic worker can
	// keep its advertised address stable across epochs. When nil,
	// JoinMesh listens on Addrs[Rank] itself and closes the listener
	// once the mesh is wired.
	Listener net.Listener
	// TCP.WireVersion is this worker's sparse wire-codec offer: the
	// handshake carries it and the mesh settles on the minimum version
	// offered by any member, so a v1 peer still decodes every frame.
	TCP TCPOptions
}

// helloSize is the wire size of the mesh handshake: uint32 rank,
// uint64 epoch, one wire-codec offer byte, little-endian.
//
// The handshake layout itself is NOT versioned (there is no room to
// retrofit one — older revisions read a fixed byte count and would
// consume part of a longer hello as frame data), so every member of a
// mesh must run the same handshake revision of this package; the codec
// offer byte negotiates the sparse FRAME format within that revision,
// not the handshake. Mixing binaries across handshake revisions (4-byte
// pre-epoch, 12-byte epoch, 13-byte codec-offer hellos) desyncs the
// link and surfaces as a mesh-setup timeout.
const helloSize = 13

// helloAck is the first of the two bytes an acceptor returns after
// admitting a dialled connection into the mesh (the second byte is the
// wire-codec version chosen for the link — the minimum of both offers).
// Dials that never see the ack (the peer is still in an older epoch, or
// its accept backlog swallowed a connection it later discarded) redial
// instead of silently attaching a half-open link.
const helloAck = 0x06

// JoinMesh joins a multi-process TCP mesh as one rank and returns its
// endpoint once the full mesh for cfg.Epoch is connected.
//
// Wire-up protocol: rank r listens on Addrs[r], accepts connections
// from every higher rank and dials every lower rank, retrying until the
// peer listens or ctx expires (process start order is arbitrary). Each
// dialled connection opens with a 13-byte hello carrying the dialler's
// rank, epoch and wire-codec offer; the acceptor answers with a 2-byte
// ack (admission plus the link's wire version) once it admits the
// link. Hellos from a different epoch are dropped without an ack — the
// dialler redials — and a redial from an already-admitted rank replaces
// the earlier link, so the handshake converges even when workers enter
// the new epoch at very different times.
func JoinMesh(ctx context.Context, cfg MeshConfig) (Conn, error) {
	n := len(cfg.Addrs)
	if n < 1 {
		return nil, fmt.Errorf("transport: empty address list")
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("transport: rank %d out of range [0,%d)", cfg.Rank, n)
	}
	c := &tcpConn{
		rank:  cfg.Rank,
		size:  n,
		peers: make([]*peerLink, n),
		box:   newMailbox(n),
		wire:  normalizeWire(cfg.TCP.WireVersion),
	}
	if n == 1 {
		return c, nil
	}

	ln := cfg.Listener
	if ln == nil {
		owned, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("transport: rank %d listen on %s: %w", cfg.Rank, cfg.Addrs[cfg.Rank], err)
		}
		defer owned.Close() //nolint:errcheck // mesh complete or failed; owned listener no longer needed
		ln = owned
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}

	// Accept from all higher ranks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := acceptHigherRanks(ctx, ln, c, cfg); err != nil {
			fail(err)
		}
	}()

	// Dial all lower ranks, retrying while they come up.
	for peer := 0; peer < cfg.Rank; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			sock, linkWire, err := dialMesh(ctx, cfg.Addrs[peer], cfg.Rank, cfg.Epoch, normalizeWire(cfg.TCP.WireVersion))
			if err != nil {
				fail(fmt.Errorf("rank %d dial rank %d (%s): %w", cfg.Rank, peer, cfg.Addrs[peer], err))
				return
			}
			c.noteWire(linkWire)
			c.attach(peer, sock)
		}(peer)
	}
	wg.Wait()
	if len(errs) > 0 {
		c.Close() //nolint:errcheck // best-effort cleanup on failed wire-up
		return nil, fmt.Errorf("transport: mesh setup (epoch %d): %v", cfg.Epoch, errs[0])
	}
	c.startReaders()
	return c, nil
}

// acceptHigherRanks admits one connection per rank above cfg.Rank,
// discarding hellos from other epochs and replacing duplicate hellos
// (a peer that timed out waiting for our ack and redialled) with the
// latest connection. The listener stays open: cancellation is observed
// through short accept deadlines so caller-owned listeners survive.
func acceptHigherRanks(ctx context.Context, ln net.Listener, c *tcpConn, cfg MeshConfig) error {
	n := len(cfg.Addrs)
	expected := n - 1 - cfg.Rank
	admitted := make(map[int]net.Conn, expected)
	dl, hasDeadline := ln.(interface{ SetDeadline(time.Time) error })
	for len(admitted) < expected {
		if err := ctx.Err(); err != nil {
			closeConns(admitted)
			return err
		}
		if hasDeadline {
			dl.SetDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck // polling deadline
		}
		sock, err := ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			closeConns(admitted)
			return fmt.Errorf("rank %d accept: %w", cfg.Rank, err)
		}
		peer, epoch, offered, err := readHello(sock)
		if err != nil || epoch != cfg.Epoch {
			// Stale epoch, garbage, or an abandoned redial victim: not
			// part of this mesh. Dropping without an ack makes a live
			// dialler retry.
			sock.Close() //nolint:errcheck // discarding a non-member connection
			continue
		}
		if peer <= cfg.Rank || peer >= n {
			// Same epoch but an impossible rank: a duplicate -rank or a
			// mismatched address list. Misconfiguration fails fast
			// instead of wedging both sides until their deadlines.
			sock.Close() //nolint:errcheck // protocol violation
			closeConns(admitted)
			return fmt.Errorf("rank %d: unexpected hello from rank %d (epoch %d)", cfg.Rank, peer, epoch)
		}
		// The link speaks the older of the two offers; the ack tells the
		// dialler which version won so both ends agree.
		linkWire := minWire(normalizeWire(cfg.TCP.WireVersion), normalizeWire(offered))
		if _, err := sock.Write([]byte{helloAck, linkWire}); err != nil {
			sock.Close() //nolint:errcheck // dialler gave up; it will redial
			continue
		}
		if prev, ok := admitted[peer]; ok {
			prev.Close() //nolint:errcheck // superseded by the peer's redial
		}
		admitted[peer] = sock
		c.noteWire(linkWire)
	}
	if hasDeadline {
		dl.SetDeadline(time.Time{}) //nolint:errcheck // clear polling deadline
	}
	for peer, sock := range admitted {
		c.attach(peer, sock)
	}
	return nil
}

// dialMesh dials addr until the acceptor admits this rank into epoch's
// mesh (hello with the wire-codec offer sent, two-byte ack received) or
// ctx expires. It returns the admitted connection plus the wire version
// the acceptor chose for the link. A connection that is accepted by the
// OS but never acked — the peer is still in another epoch, or dropped us
// while draining its backlog — is closed and redialled with backoff.
func dialMesh(ctx context.Context, addr string, rank int, epoch uint64, offerWire byte) (net.Conn, byte, error) {
	backoff := 10 * time.Millisecond
	const maxBackoff = time.Second
	// ackWait bounds one admission attempt. It is generous relative to a
	// live accept loop (which acks in microseconds) but short enough to
	// keep retrying a peer that is lagging an epoch behind.
	const ackWait = 2 * time.Second
	var d net.Dialer
	for {
		sock, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			var hello [helloSize]byte
			binary.LittleEndian.PutUint32(hello[0:4], uint32(rank))
			binary.LittleEndian.PutUint64(hello[4:12], epoch)
			hello[12] = offerWire
			if _, err = sock.Write(hello[:]); err == nil {
				deadline := time.Now().Add(ackWait)
				if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
					deadline = cd
				}
				sock.SetReadDeadline(deadline) //nolint:errcheck // best-effort bound on the ack wait
				var ack [2]byte
				if _, err = io.ReadFull(sock, ack[:]); err == nil && ack[0] == helloAck &&
					ack[1] >= WireV1 && ack[1] <= offerWire {
					// The chosen version can only be between v1 and our
					// own offer; anything else is a protocol violation and
					// the connection is abandoned like a missing ack.
					sock.SetReadDeadline(time.Time{}) //nolint:errcheck // clear handshake deadline
					return sock, ack[1], nil
				}
			}
			sock.Close() //nolint:errcheck // admission failed; retry fresh
		}
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// readHello parses the dialler's 13-byte mesh handshake: rank, epoch and
// the dialler's sparse wire-codec offer.
func readHello(sock net.Conn) (rank int, epoch uint64, offerWire byte, err error) {
	sock.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // bound a wedged handshake
	var hello [helloSize]byte
	if _, err := io.ReadFull(sock, hello[:]); err != nil {
		return 0, 0, 0, err
	}
	sock.SetReadDeadline(time.Time{}) //nolint:errcheck // clear handshake deadline
	return int(binary.LittleEndian.Uint32(hello[0:4])), binary.LittleEndian.Uint64(hello[4:12]), hello[12], nil
}

func closeConns(conns map[int]net.Conn) {
	for _, sock := range conns {
		sock.Close() //nolint:errcheck // teardown path
	}
}
