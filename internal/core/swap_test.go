package core_test

// The swap wall: the gTop-k tree's top reduce round and first broadcast
// round are one pairwise exchange between rank 0 and rank
// h = 2^(⌈log₂P⌉−1). These tests pin what that schedule promises at
// every world size and codec: replicas agree bit for bit, lossless
// results equal a serial evaluation of the binomial merge order, the
// longest send→recv chain is 2⌈log₂P⌉−1 hops over exactly 2(P−1)
// messages, both swap partners fold their own quantization error, and
// a steady-state collective allocates nothing.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// hopConn wraps an endpoint and tracks causal depth: every message
// carries one more hop than the longest chain its sender had seen, and
// a receive raises the receiver's depth to the message's. Depths ride a
// FIFO per (src, dst, tag), the order both fabrics deliver in. Every
// optional capability is forwarded, so the collectives take the same
// code paths as on the bare fabric.
type hopConn struct {
	inner transport.Conn
	rec   *hopRecorder
}

// hopRecorder is the fabric-wide state the hopConns share.
type hopRecorder struct {
	mu     sync.Mutex
	depth  []int            // per rank: longest chain ending here so far
	sent   []int            // per rank: frames sent
	flight map[[3]int][]int // (src, dst, tag) → depths of frames in flight
}

func newHopFabric(f transport.Fabric) ([]transport.Conn, *hopRecorder) {
	p := f.Size()
	rec := &hopRecorder{depth: make([]int, p), sent: make([]int, p), flight: map[[3]int][]int{}}
	conns := make([]transport.Conn, p)
	for r := range conns {
		conns[r] = &hopConn{inner: f.Conn(r), rec: rec}
	}
	return conns, rec
}

func (c *hopConn) stamp(dst, tag int) {
	c.rec.mu.Lock()
	defer c.rec.mu.Unlock()
	key := [3]int{c.Rank(), dst, tag}
	c.rec.flight[key] = append(c.rec.flight[key], c.rec.depth[c.Rank()]+1)
	c.rec.sent[c.Rank()]++
}

func (c *hopConn) Rank() int    { return c.inner.Rank() }
func (c *hopConn) Size() int    { return c.inner.Size() }
func (c *hopConn) Close() error { return c.inner.Close() }

func (c *hopConn) Send(ctx context.Context, dst, tag int, payload []byte) error {
	c.stamp(dst, tag)
	return c.inner.Send(ctx, dst, tag, payload)
}

func (c *hopConn) SendPooled(ctx context.Context, dst, tag int, payload []byte) error {
	c.stamp(dst, tag)
	return transport.SendPooled(ctx, c.inner, dst, tag, payload)
}

func (c *hopConn) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	payload, err := c.inner.Recv(ctx, src, tag)
	if err != nil {
		return nil, err
	}
	c.rec.mu.Lock()
	defer c.rec.mu.Unlock()
	key := [3]int{src, c.Rank(), tag}
	q := c.rec.flight[key]
	if len(q) == 0 {
		return nil, fmt.Errorf("hopConn: frame %d->%d tag %d was never sent", src, c.Rank(), tag)
	}
	c.rec.depth[c.Rank()] = max(c.rec.depth[c.Rank()], q[0])
	c.rec.flight[key] = q[1:]
	return payload, nil
}

func (c *hopConn) SendIsSynchronous() bool     { return transport.SendConsumedOnReturn(c.inner) }
func (c *hopConn) RecvIsPrivate() bool         { return transport.PrivateRecv(c.inner) }
func (c *hopConn) NegotiatedWireVersion() byte { return transport.NegotiatedWireVersion(c.inner) }

// hops is the longest send→recv chain of everything recorded; messages
// is the total frame count.
func (r *hopRecorder) hops() (hops, messages int) {
	for i := range r.depth {
		hops = max(hops, r.depth[i])
		messages += r.sent[i]
	}
	return hops, messages
}

// swapRun is one collective over a recorded fabric.
type swapRun struct {
	results []*sparse.Vector
	rec     *hopRecorder
}

// runSwapWorld runs one collective on every rank of a fresh fabric
// ("inproc" or "tcp", negotiated to the codec's wire version) whose
// comms carry the codec's stack exactly as the CLI attaches it. g > 1
// runs the hierarchy over groups of g.
func runSwapWorld(t *testing.T, fabric string, codec sparse.Codec, vecs []*sparse.Vector, k, g int) swapRun {
	t.Helper()
	p := len(vecs)
	var f transport.Fabric
	var err error
	if fabric == "tcp" {
		f, err = transport.NewTCPWithOptions(p, transport.TCPOptions{WireVersion: codec.WireVersion()})
	} else {
		f, err = transport.NewInProcWire(p, codec.WireVersion())
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	conns, rec := newHopFabric(f)
	run := swapRun{results: make([]*sparse.Vector, p), rec: rec}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm := collective.New(conns[rank])
			quant.AttachStack(comm, codec, 99)
			out := &sparse.Vector{}
			var gc *collective.GroupComms
			if g > 1 {
				var err error
				if gc, err = comm.ForkGroup(g); err != nil {
					errs[rank] = err
					return
				}
			}
			errs[rank] = core.GTopKInto(context.Background(), comm, gc, vecs[rank].Clone(), k, out)
			run.results[rank] = out
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("%s %s rank %d: %v", fabric, codec, rank, err)
		}
	}
	return run
}

// serialBinomial folds vecs with the tree's merge order — in round j,
// position i with i mod 2^(j+1) == 0 absorbs i+2^j — in one goroutine.
// The swap changes who computes the last merge, not the merge.
func serialBinomial(t *testing.T, vecs []*sparse.Vector, k int) *sparse.Vector {
	t.Helper()
	cur := make([]*sparse.Vector, len(vecs))
	for i, v := range vecs {
		cur[i] = v.Clone()
	}
	for stride := 1; stride < len(cur); stride *= 2 {
		for i := 0; i+stride < len(cur); i += 2 * stride {
			merged, err := sparse.Merge(cur[i], cur[i+stride], k)
			if err != nil {
				t.Fatal(err)
			}
			cur[i] = merged
		}
	}
	return cur[0]
}

// TestSwapTreeWall is the table test of the swapped tree: every world
// size 1..9 and 16 × the lossless and both stochastic codec families
// on the in-process fabric, and P ∈ {3, 4, 8} over loopback
// TCP, which must reproduce the in-process bits. A second shape, k =
// 2 000 of 4 000 at P ∈ {4, 8}, is large enough that a hop once went as
// four frames: every hop is one message, so the count stays 2(P−1).
func TestSwapTreeWall(t *testing.T) {
	codecs := []sparse.Codec{sparse.CodecV1, sparse.CodecV3, sparse.CodecV3Q8, sparse.CodecV3T}
	for _, shape := range []struct {
		dim, k int
		ps     []int
	}{
		{240, 12, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16}},
		{4000, 2000, []int{4, 8}},
	} {
		k := shape.k
		for _, p := range shape.ps {
			vecs := compoundVectors(uint64(500+p), p, shape.dim, k, "gauss")
			want := serialBinomial(t, vecs, k)
			for _, codec := range codecs {
				name := fmt.Sprintf("k=%d/p=%d/%s", k, p, codec)
				inproc := runSwapWorld(t, "inproc", codec, vecs, k, 0)
				for r := 1; r < p; r++ {
					assertSameVector(t, fmt.Sprintf("%s rank %d vs 0", name, r), inproc.results[0], inproc.results[r])
				}
				if !codec.Lossy() {
					assertSameVector(t, name+" vs serial binomial merge", want, inproc.results[0])
				}
				// 2⌈log₂P⌉−1 rounds; below a power of two the idle ranks
				// shorten the longest chain by at most the one round rank 0
				// idles through waiting for the shallower half.
				hops, msgs := inproc.rec.hops()
				rounds := max(2*netsim.CeilLog2(p)-1, 0)
				if hops > rounds || (p&(p-1) == 0 && hops != rounds) || hops < rounds-1 || msgs != 2*(p-1) {
					t.Fatalf("%s: %d hops over %d messages, want %d over %d", name, hops, msgs, rounds, 2*(p-1))
				}
				if p != 3 && p != 4 && p != 8 {
					continue
				}
				tcp := runSwapWorld(t, "tcp", codec, vecs, k, 0)
				for r := 0; r < p; r++ {
					assertSameVector(t, fmt.Sprintf("%s tcp rank %d vs inproc", name, r), inproc.results[r], tcp.results[r])
				}
				if h, m := tcp.rec.hops(); h != hops || m != msgs {
					t.Fatalf("%s tcp: %d hops over %d messages, inproc %d over %d", name, h, m, hops, msgs)
				}
			}
		}
	}
}

// TestSwapHierarchyHops: the hierarchy at P=8, G=4 — the wan-hier shape,
// at a k large enough that a leader hop once went as three frames —
// gathers each group at its leader in one hop, swaps the two leaders'
// aggregates in one and fans out in one: 3 hops, and rank 0 sends 4
// frames (one for the swap and one to each of its three members). Its
// replicas agree and the lossless result is the group trees' merge
// folded at the leader level.
func TestSwapHierarchyHops(t *testing.T) {
	const p, g, dim, k = 8, 4, 4000, 800
	vecs := compoundVectors(808, p, dim, k, "gauss")
	want := serialBinomial(t, []*sparse.Vector{serialBinomial(t, vecs[:g], k), serialBinomial(t, vecs[g:], k)}, k)
	for _, codec := range []sparse.Codec{sparse.CodecV3, sparse.CodecV3Q8} {
		run := runSwapWorld(t, "inproc", codec, vecs, k, g)
		for r := 0; r < p; r++ {
			if !codec.Lossy() {
				assertSameVector(t, fmt.Sprintf("%s rank %d vs oracle", codec, r), want, run.results[r])
			}
			assertSameVector(t, fmt.Sprintf("%s rank %d vs 0", codec, r), run.results[0], run.results[r])
		}
		if hops, _ := run.rec.hops(); hops != 3 || run.rec.sent[0] != 4 {
			t.Fatalf("%s: %d hops and %d frames sent by rank 0, want 3 and 4", codec, hops, run.rec.sent[0])
		}
	}
}

// TestSwapPartnersFoldTheirError: at P=2 the whole tree is the swap, so
// BOTH ranks ship quantized copies of their selection — rank 0 no longer
// only receives. Each must pin its values to the lattice in place and
// FoldError must keep residual + shipped = gradient for every selected
// index, so no mass leaks on either side.
func TestSwapPartnersFoldTheirError(t *testing.T) {
	const p, dim, k = 2, 400, 20
	f, err := transport.NewInProcWire(p, sparse.CodecV3Q8.WireVersion())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = func() error {
				rng := prng.New(41 + uint64(rank))
				grad := make([]float32, dim)
				for i := range grad {
					grad[i] = float32(rng.NormFloat64())
				}
				comm := collective.New(f.Conn(rank))
				quant.AttachStack(comm, sparse.CodecV3Q8, 5)
				sp := core.NewSparsifier(dim)
				local, err := sp.SelectMomentum(0, nil, grad, k)
				if err != nil {
					return err
				}
				orig := append([]float32(nil), local.Values...)
				if err := core.GTopKInto(context.Background(), comm, nil, local, k, &sparse.Vector{}); err != nil {
					return err
				}
				sp.FoldError(local.Indices, orig, local.Values)
				moved := 0
				for i, idx := range local.Indices {
					if local.Values[i] != orig[i] {
						moved++
					}
					recon := sp.Residual()[idx] + local.Values[i]
					if diff := math.Abs(float64(recon - grad[idx])); diff > 1e-5*(1+math.Abs(float64(grad[idx]))) {
						return fmt.Errorf("leak at %d: residual %v + shipped %v = %v, want %v",
							idx, sp.Residual()[idx], local.Values[i], recon, grad[idx])
					}
				}
				if moved == 0 {
					return fmt.Errorf("no selected value was pinned to the lattice: this rank shipped nothing")
				}
				return nil
			}()
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}
