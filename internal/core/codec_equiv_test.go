package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/f16"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// halfValues is the fp16 value preference — quant.NewStack(ValueF16, …)
// without the import cycle (quant imports core).
type halfValues struct{}

func (halfValues) ValueCodec() sparse.ValueCodec { return sparse.ValueF16 }

func (halfValues) Transform(values []float32) (float32, []int16) {
	f16.RoundSlice(values)
	return 0, nil
}

func (h halfValues) Fork(uint64) sparse.Compressor { return h }

func (h halfValues) Shared(uint64) sparse.Compressor { return h }

// runChunkedWire executes GTopKAllReduceInto on every rank of an
// in-process fabric negotiated to the given wire version (with an
// optional fp16 value preference) and returns the per-rank results.
func runChunkedWire(t *testing.T, vecs []*sparse.Vector, k, chunks int, wire byte, fp16 bool) []*sparse.Vector {
	t.Helper()
	p := len(vecs)
	f, err := transport.NewInProcWire(p, wire)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	results := make([]*sparse.Vector, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm := collective.New(f.Conn(rank))
			if fp16 {
				comm.SetCompressor(halfValues{})
			}
			out := &sparse.Vector{}
			errs[rank] = GTopKAllReduceInto(context.Background(), comm, vecs[rank].Clone(), k, chunks, out)
			results[rank] = out
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return results
}

// TestGTopKCodecV3BitEquivalence is the codec acceptance test: the
// lossless v3 wire format must produce results bit-identical to v1
// across the full chunk-test matrix — every world size the chunk tests
// cover (including non-powers of two and 16), massive threshold ties,
// and empty supports — at several chunk counts.
func TestGTopKCodecV3BitEquivalence(t *testing.T) {
	const dim, k = 240, 12
	for _, p := range []int{2, 3, 4, 5, 6, 7, 8, 16} {
		for _, mode := range []string{"gauss", "ties", "empty"} {
			var vecs []*sparse.Vector
			switch mode {
			case "gauss":
				_, vecs = makeWorkerVectors(uint64(60+p), p, dim, k)
			case "ties":
				vecs = tieHeavyVectors(uint64(90+p), p, dim, k)
			case "empty":
				_, vecs = makeWorkerVectors(uint64(120+p), p, dim, k)
				for r := 0; r < p; r += 2 {
					vecs[r] = &sparse.Vector{Dim: dim}
				}
			}
			for _, chunks := range []int{1, 3, DefaultChunks} {
				v1 := runChunkedWire(t, vecs, k, chunks, transport.WireV1, false)
				v3 := runChunkedWire(t, vecs, k, chunks, transport.WireV3, false)
				for r := range v1 {
					assertVecEqual(t, fmt.Sprintf("p=%d %s chunks=%d rank %d v3-vs-v1", p, mode, chunks, r),
						v1[r], v3[r])
				}
			}
		}
	}
}

// TestGTopKCodecV3OverTCP runs the collective over real loopback sockets
// with a v3-negotiated mesh and checks bit-equivalence against the v1
// result, plus that the v3 mesh actually moved fewer wire bytes.
func TestGTopKCodecV3OverTCP(t *testing.T) {
	const p, dim, k = 4, 5000, 50
	_, vecs := makeWorkerVectors(7, p, dim, k)
	want := runChunkedWire(t, vecs, k, 3, transport.WireV1, false)

	bytesSent := make([]int64, 2)
	for vi, wire := range []byte{transport.WireV1, transport.WireV3} {
		fab, err := transport.NewTCPWithOptions(p, transport.TCPOptions{WireVersion: wire})
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*sparse.Vector, p)
		errs := make([]error, p)
		comms := make([]*collective.Comm, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			comms[r] = collective.New(fab.Conn(r))
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				out := &sparse.Vector{}
				errs[rank] = GTopKAllReduceInto(context.Background(), comms[rank], vecs[rank].Clone(), k, 3, out)
				results[rank] = out
			}(r)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("wire v%d rank %d: %v", wire, rank, err)
			}
		}
		for r := 0; r < p; r++ {
			assertVecEqual(t, fmt.Sprintf("tcp wire v%d rank %d", wire, r), want[r], results[r])
			bytesSent[vi] += comms[r].Stats().BytesSent
		}
		fab.Close() //nolint:errcheck // test teardown
	}
	if bytesSent[1] >= bytesSent[0] {
		t.Errorf("v3 mesh moved %d bytes, v1 moved %d — no compression", bytesSent[1], bytesSent[0])
	}
}

// TestGTopKCodecF16ReplicaAgreement: under the lossy fp16 codec every
// rank must still hold the bit-identical result (the root rounds its own
// copy through the codec before broadcasting), and every surviving value
// must be an fp16-representable number.
func TestGTopKCodecF16ReplicaAgreement(t *testing.T) {
	const dim, k = 300, 15
	for _, p := range []int{2, 3, 4, 5, 8} {
		_, vecs := makeWorkerVectors(uint64(40+p), p, dim, k)
		results := runChunkedWire(t, vecs, k, DefaultChunks, transport.WireV3, true)
		for r := 1; r < p; r++ {
			assertVecEqual(t, fmt.Sprintf("p=%d fp16 rank %d vs rank 0", p, r), results[0], results[r])
		}
		for i, v := range results[0].Values {
			if math.Float32bits(f16.Round(v)) != math.Float32bits(v) {
				t.Fatalf("p=%d: value %d (%v) is not fp16-representable", p, i, v)
			}
		}
		if results[0].NNZ() == 0 {
			t.Fatalf("p=%d: fp16 aggregation lost the whole payload", p)
		}
	}
}

// TestGTopKCodecMixedMeshFallsBack: a mesh where one member offers only
// v1 must settle on v1 frames everywhere and still produce the v1 bits,
// even when other members ask for fp16.
func TestGTopKCodecMixedMeshFallsBack(t *testing.T) {
	const p, dim, k = 3, 240, 12
	_, vecs := makeWorkerVectors(9, p, dim, k)
	want := runChunkedWire(t, vecs, k, 2, transport.WireV1, false)

	// Simulate the negotiated outcome: the fabric settled on v1 while
	// the application still asks for fp16 — the preference must be
	// silently ineffective (v1 has no fp16 mode).
	got := runChunkedWire(t, vecs, k, 2, transport.WireV1, true)
	for r := range want {
		assertVecEqual(t, fmt.Sprintf("mixed mesh rank %d", r), want[r], got[r])
	}
}

// TestGTopKWireTally: the attached tally must observe every outbound
// frame with raw >= wire under v3 and raw == wire under v1.
func TestGTopKWireTally(t *testing.T) {
	const p, dim, k = 4, 2000, 40
	_, vecs := makeWorkerVectors(13, p, dim, k)
	for _, wire := range []byte{transport.WireV1, transport.WireV3} {
		f, err := transport.NewInProcWire(p, wire)
		if err != nil {
			t.Fatal(err)
		}
		tallies := make([]*metrics.WireTally, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			tallies[r] = &metrics.WireTally{}
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				comm := collective.New(f.Conn(rank))
				comm.SetWireTally(tallies[rank])
				out := &sparse.Vector{}
				errs[rank] = GTopKAllReduceInto(context.Background(), comm, vecs[rank].Clone(), k, 2, out)
			}(r)
		}
		wg.Wait()
		f.Close() //nolint:errcheck // test teardown
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("wire v%d rank %d: %v", wire, rank, err)
			}
		}
		var total metrics.WireCounters
		for _, tl := range tallies {
			c := tl.Snapshot()
			total.Frames += c.Frames
			total.RawBytes += c.RawBytes
			total.WireBytes += c.WireBytes
		}
		if total.Frames == 0 {
			t.Fatalf("wire v%d: tally observed no frames", wire)
		}
		switch wire {
		case transport.WireV1:
			if total.RawBytes != total.WireBytes {
				t.Errorf("v1 tally: raw %d != wire %d", total.RawBytes, total.WireBytes)
			}
		case transport.WireV3:
			if total.WireBytes >= total.RawBytes {
				t.Errorf("v3 tally: wire %d not below raw %d", total.WireBytes, total.RawBytes)
			}
		}
	}
}
