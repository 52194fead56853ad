package core_test

// The collective's golden wall: every gTop-k schedule — the flat tree
// and the two-level hierarchy at each legal group size — over world
// sizes 1..9, 12 and 16 and four wire codecs, one frame per hop, and
// the baselines' collectives (Top-k and naive gTop-k at the
// power-of-two sizes, PS gTop-k at every size), hashed
// four ways: every rank's result, every rank's local selection after
// the call (lossy codecs pin it in place), the slowest rank's α-β clock
// and the WireTally totals. A refactor of the collective must leave
// every row's hashes where they are; a row that moves is listed, with
// its old and new hashes and the reason, in CHANGES.md.

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// Values the compiler cannot fold, for fusesMulAdd.
var fmaX, fmaZ = float32(1 + 0x1p-12), float32(-1)

// fusesMulAdd reports whether this build rounds x*y + z once (arm64,
// GOAMD64=v3, ...) instead of twice: x*x is 1 + 2⁻¹¹ + 2⁻²⁴, whose last
// term a separate float32 multiply rounds away.
func fusesMulAdd() bool { return fmaX*fmaX+fmaZ != 0x1p-11 }

// goldenHashes is one row's four hashes.
type goldenHashes struct{ result, local, clock, tally uint64 }

func (h goldenHashes) String() string {
	return fmt.Sprintf("{%#016x, %#016x, %#016x, %#016x}", h.result, h.local, h.clock, h.tally)
}

// goldenRow is one configuration of the wall; g <= 1 is the flat tree,
// and a non-empty baseline names the baseline aggregator whose
// collective runs instead.
type goldenRow struct {
	fabric   string
	p, g     int
	codec    sparse.Codec
	baseline string
}

func (r goldenRow) name() string {
	topo := "flat"
	switch {
	case r.baseline != "":
		topo = r.baseline
	case r.g > 1:
		topo = fmt.Sprintf("g=%d", r.g)
	}
	// "c=1": one frame per hop, the suffix the rows were recorded under.
	return fmt.Sprintf("%s/p=%d/%s/%s/c=1", r.fabric, r.p, topo, r.codec)
}

// goldenRows lists the wall: inproc rows for every (P, schedule, codec)
// and four loopback TCP rows, then every baseline's inproc rows — the
// AllGather's at power-of-two P only — and one v1 TCP row each.
func goldenRows() []goldenRow {
	codecs := []sparse.Codec{sparse.CodecV1, sparse.CodecV3, sparse.CodecV3Q8}
	worlds := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16}
	var rows []goldenRow
	for _, p := range worlds {
		for _, g := range []int{0, 2, 3, 4} {
			if g > 1 && g >= p {
				continue
			}
			for _, codec := range codecs {
				rows = append(rows, goldenRow{"inproc", p, g, codec, ""})
			}
		}
	}
	for _, g := range []int{0, 4} {
		for _, codec := range []sparse.Codec{sparse.CodecV1, sparse.CodecV3Q8} {
			rows = append(rows, goldenRow{"tcp", 8, g, codec, ""})
		}
	}
	for _, baseline := range []string{"topk", "gtopk-naive", "gtopk-ps"} {
		for _, p := range worlds {
			if baseline != "gtopk-ps" && p&(p-1) != 0 {
				continue
			}
			for _, codec := range codecs {
				rows = append(rows, goldenRow{"inproc", p, 0, codec, baseline})
			}
		}
		rows = append(rows, goldenRow{"tcp", 8, 0, sparse.CodecV1, baseline})
	}
	return rows
}

// hashVector feeds v's dimension, support and value bits to h.
func hashVector(h hash.Hash64, v *sparse.Vector) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(v.Dim))
	put(uint64(v.NNZ()))
	for i, idx := range v.Indices {
		put(uint64(idx)<<32 | uint64(math.Float32bits(v.Values[i])))
	}
}

// hashInts hashes a list of integers.
func hashInts(xs ...int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// runGoldenRow runs one collective on every rank of a fresh fabric,
// each rank's comm carrying the codec's stack, a shared WireTally and
// its own α-β clock with the synchronization-skew term on.
func runGoldenRow(t *testing.T, row goldenRow) goldenHashes {
	t.Helper()
	const dim, k = 240, 12
	p := row.p
	vecs := compoundVectors(uint64(700+p), p, dim, k, "gauss")
	var f transport.Fabric
	var err error
	if row.fabric == "tcp" {
		f, err = transport.NewTCPWithOptions(p, transport.TCPOptions{WireVersion: row.codec.WireVersion()})
	} else {
		f, err = transport.NewInProcWire(p, row.codec.WireVersion())
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	model := netsim.Paper1GbE().WithSyncSkew(netsim.DefaultSyncGamma)
	tally := &metrics.WireTally{}
	outs := make([]*sparse.Vector, p)
	clocks := make([]time.Duration, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var clock netsim.Clock
			comm := collective.New(f.Conn(rank)).WithClock(&clock, model)
			quant.AttachStack(comm, row.codec, 31)
			comm.SetWireTally(tally)
			out := &sparse.Vector{}
			if row.baseline != "" {
				errs[rank] = core.BaselineInto(context.Background(), comm, row.baseline, vecs[rank], k, out)
			} else if row.g > 1 {
				gc, err := core.ForkHier(comm, row.g)
				if err == nil {
					err = core.GTopKInto(context.Background(), comm, gc, vecs[rank], k, out)
				}
				errs[rank] = err
			} else {
				errs[rank] = core.GTopKInto(context.Background(), comm, nil, vecs[rank], k, out)
			}
			outs[rank], clocks[rank] = out, clock.Now()
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("%s rank %d: %v", row.name(), rank, err)
		}
	}
	res, loc := fnv.New64a(), fnv.New64a()
	slowest := time.Duration(0)
	for r := 0; r < p; r++ {
		hashVector(res, outs[r])
		hashVector(loc, vecs[r])
		slowest = max(slowest, clocks[r])
	}
	tc := tally.Snapshot()
	return goldenHashes{res.Sum64(), loc.Sum64(), hashInts(int64(slowest)), hashInts(tc.Frames, tc.RawBytes, tc.WireBytes)}
}

// TestCollectiveGolden holds every row to its recorded hashes on amd64
// builds that round multiply-adds twice (the rows' lossy codecs scale
// and round values); elsewhere it requires two runs to agree.
func TestCollectiveGolden(t *testing.T) {
	pinned := runtime.GOARCH == "amd64" && !fusesMulAdd()
	seen := make(map[string]bool)
	for _, row := range goldenRows() {
		name := row.name()
		seen[name] = true
		got := runGoldenRow(t, row)
		want, ok := collectiveGolden[name]
		switch {
		case !pinned:
			if again := runGoldenRow(t, row); again != got {
				t.Errorf("%s: two identical runs hash differently: %v vs %v", name, got, again)
			}
		case !ok:
			t.Errorf("%s: no recorded hashes; got\n\t%q: %v,", name, name, got)
		default:
			for _, c := range []struct {
				what      string
				got, want uint64
			}{
				{"result", got.result, want.result},
				{"local", got.local, want.local},
				{"clock", got.clock, want.clock},
				{"tally", got.tally, want.tally},
			} {
				if c.got != c.want {
					t.Errorf("%s: %s hash %#016x, recorded %#016x", name, c.what, c.got, c.want)
				}
			}
		}
	}
	for name := range collectiveGolden {
		if !seen[name] {
			t.Errorf("recorded row %s is no longer run", name)
		}
	}
}

// collectiveGolden is the recorded wall: result, local, clock, tally.
var collectiveGolden = map[string]goldenHashes{
	"inproc/p=1/flat/v1/c=1":        {0x7ef35898120588ca, 0x7ef35898120588ca, 0xa8c7f832281a39c5, 0x81d23fd7003c2305},
	"inproc/p=1/flat/v3/c=1":        {0x7ef35898120588ca, 0x7ef35898120588ca, 0xa8c7f832281a39c5, 0x81d23fd7003c2305},
	"inproc/p=1/flat/v3-qsgd8/c=1":  {0x7ef35898120588ca, 0x7ef35898120588ca, 0xa8c7f832281a39c5, 0x81d23fd7003c2305},
	"inproc/p=2/flat/v1/c=1":        {0xddd8e059862f23dd, 0x24a321d6de3e623f, 0x0eb88c7111387f36, 0x4f35120a916c8247},
	"inproc/p=2/flat/v3/c=1":        {0xddd8e059862f23dd, 0x24a321d6de3e623f, 0xba8a7965fd1c237f, 0x0444a43458d17393},
	"inproc/p=2/flat/v3-qsgd8/c=1":  {0x31de0d191bb5f901, 0x60cb2c110126a60e, 0x0d0e3331b7a01724, 0xb41b3f690f8085df},
	"inproc/p=3/flat/v1/c=1":        {0x8793d742f554af44, 0xcfc905e9ce28ab8c, 0x27c984d651705c35, 0x87791cb5339cc521},
	"inproc/p=3/flat/v3/c=1":        {0x8793d742f554af44, 0xcfc905e9ce28ab8c, 0xc94f3552fa4085b0, 0xe144b199715b49c9},
	"inproc/p=3/flat/v3-qsgd8/c=1":  {0xe1e95c78715ec945, 0xdf05ca5178b3ce97, 0x4f57a333090dba8c, 0x912bf2dceea6d876},
	"inproc/p=3/g=2/v1/c=1":         {0x8793d742f554af44, 0xcfc905e9ce28ab8c, 0x86f1a71fcf7ef2de, 0x87791cb5339cc521},
	"inproc/p=3/g=2/v3/c=1":         {0x8793d742f554af44, 0xcfc905e9ce28ab8c, 0xe16ab1ca33491ff4, 0xe144b199715b49c9},
	"inproc/p=3/g=2/v3-qsgd8/c=1":   {0x7b95f67bd523142a, 0x57da6d8998afc144, 0xc9e687293244a639, 0x001c2f3cf7a78688},
	"inproc/p=4/flat/v1/c=1":        {0x8d97d1615084286d, 0x1229cf4ba6d528fd, 0x76d2e460b23f0401, 0x0a8906226318abe3},
	"inproc/p=4/flat/v3/c=1":        {0x8d97d1615084286d, 0x1229cf4ba6d528fd, 0xf2239b1f031e40f4, 0x439cd6193823f84a},
	"inproc/p=4/flat/v3-qsgd8/c=1":  {0x806ce959d7d37b9d, 0xff788f9b9aacd800, 0x9a424d45466b26eb, 0x3b626852c901ccf1},
	"inproc/p=4/g=2/v1/c=1":         {0x8d97d1615084286d, 0x1229cf4ba6d528fd, 0x86f1a71fcf7ef2de, 0x0a8906226318abe3},
	"inproc/p=4/g=2/v3/c=1":         {0x8d97d1615084286d, 0x1229cf4ba6d528fd, 0xe16ab1ca33491ff4, 0x439cd6193823f84a},
	"inproc/p=4/g=2/v3-qsgd8/c=1":   {0xa7aa9486b9285605, 0xdd25356e4ea20f25, 0xc9e687293244a639, 0xadbbfa6cc6eddae2},
	"inproc/p=4/g=3/v1/c=1":         {0x8d97d1615084286d, 0x1229cf4ba6d528fd, 0xb0ce6e0e2eb35780, 0xf9cbe4ea4a1e52e0},
	"inproc/p=4/g=3/v3/c=1":         {0x8d97d1615084286d, 0x1229cf4ba6d528fd, 0xcc64f64fb0ab59d2, 0x4d1c07346de8aeef},
	"inproc/p=4/g=3/v3-qsgd8/c=1":   {0x111841255826da85, 0x32e272b64e798c2b, 0x8a8dfeabf4b3d2ff, 0x128fcedc4cf57a8c},
	"inproc/p=5/flat/v1/c=1":        {0x3bf796a0778afaff, 0xcdf5c1519f0daaa6, 0x2b5d260ad93faace, 0x0a8906226318abe3},
	"inproc/p=5/flat/v3/c=1":        {0x3bf796a0778afaff, 0xcdf5c1519f0daaa6, 0xc876c4b951582b94, 0x8192642b4e028c8c},
	"inproc/p=5/flat/v3-qsgd8/c=1":  {0x04c7f9f59e3a52d2, 0x9f16c0b880829720, 0x0dc99d8405bf6f99, 0x7957f664dee06133},
	"inproc/p=5/g=2/v1/c=1":         {0x3bf796a0778afaff, 0xcdf5c1519f0daaa6, 0xad1b811179ed40f9, 0xa0839e0a486ff1ed},
	"inproc/p=5/g=2/v3/c=1":         {0x3bf796a0778afaff, 0xcdf5c1519f0daaa6, 0x316c6e21c4dfe070, 0x557e8f955a643d98},
	"inproc/p=5/g=2/v3-qsgd8/c=1":   {0x53c4d6bb8550d130, 0x575a30747558f110, 0xb44500f61afe52b1, 0xf066700a887ac4dd},
	"inproc/p=5/g=3/v1/c=1":         {0x3bf796a0778afaff, 0xcdf5c1519f0daaa6, 0xb0ce6e0e2eb35780, 0x2241aec05dbae2d2},
	"inproc/p=5/g=3/v3/c=1":         {0x3bf796a0778afaff, 0xcdf5c1519f0daaa6, 0xcc64f64fb0ab59d2, 0x2f4d34934713d9a5},
	"inproc/p=5/g=3/v3-qsgd8/c=1":   {0x5a94a6e22ded268a, 0x66a095f2467c8062, 0x8a8dfeabf4b3d2ff, 0x7d965214adfdcbd7},
	"inproc/p=5/g=4/v1/c=1":         {0x3bf796a0778afaff, 0xcdf5c1519f0daaa6, 0x6f7e948efa2156ed, 0x0a8906226318abe3},
	"inproc/p=5/g=4/v3/c=1":         {0x3bf796a0778afaff, 0xcdf5c1519f0daaa6, 0xaf5a4a908009f241, 0xaf470624d0dc53df},
	"inproc/p=5/g=4/v3-qsgd8/c=1":   {0x726b069413942ba3, 0xde9819b6c865eb16, 0x6237654e7e6afcc5, 0xad7764e9b511d4be},
	"inproc/p=6/flat/v1/c=1":        {0xb5dc429113f6a865, 0x5e9aeec6ccabc857, 0xd3ff76c434bd45ea, 0xa0839e0a486ff1ed},
	"inproc/p=6/flat/v3/c=1":        {0xb5dc429113f6a865, 0x5e9aeec6ccabc857, 0x73cc423172c2ba38, 0x2cd2efac8bd4f4c2},
	"inproc/p=6/flat/v3-qsgd8/c=1":  {0xeb4ebe7617321939, 0x0f29d6824c28813e, 0x9922ebfeda4d3621, 0x3685c5d446df0817},
	"inproc/p=6/g=2/v1/c=1":         {0xb5dc429113f6a865, 0x5e9aeec6ccabc857, 0xad1b811179ed40f9, 0x9248cd917131874f},
	"inproc/p=6/g=2/v3/c=1":         {0xb5dc429113f6a865, 0x5e9aeec6ccabc857, 0x316c6e21c4dfe070, 0x062b6e1b81a1f99d},
	"inproc/p=6/g=2/v3-qsgd8/c=1":   {0x924bfb68cce40da5, 0xd8af36b5b253a387, 0x4ff92a413c768c35, 0xaab18419b551ee96},
	"inproc/p=6/g=3/v1/c=1":         {0xca356ea7f595fcdd, 0x5e9aeec6ccabc857, 0xb0ce6e0e2eb35780, 0xa0839e0a486ff1ed},
	"inproc/p=6/g=3/v3/c=1":         {0xca356ea7f595fcdd, 0x5e9aeec6ccabc857, 0xcc64f64fb0ab59d2, 0x2cd2efac8bd4f4c2},
	"inproc/p=6/g=3/v3-qsgd8/c=1":   {0x1630c65e5f8aeae9, 0x19fcc8b66991ed13, 0x8a8dfeabf4b3d2ff, 0xb270e1f8729c309b},
	"inproc/p=6/g=4/v1/c=1":         {0xb5dc429113f6a865, 0x5e9aeec6ccabc857, 0x6f7e948efa2156ed, 0xa0839e0a486ff1ed},
	"inproc/p=6/g=4/v3/c=1":         {0xb5dc429113f6a865, 0x5e9aeec6ccabc857, 0xaf5a4a908009f241, 0x2cd2efac8bd4f4c2},
	"inproc/p=6/g=4/v3-qsgd8/c=1":   {0x8b681b196dd1102d, 0x8d1adf6f120c38fc, 0x96b179bd8da30c89, 0xb270e1f8729c309b},
	"inproc/p=7/flat/v1/c=1":        {0x9de34455bf8a80ad, 0xac4320fdadd6e8aa, 0x22283e4046adccb6, 0x23f46f046efa42cc},
	"inproc/p=7/flat/v3/c=1":        {0x9de34455bf8a80ad, 0xac4320fdadd6e8aa, 0x439bbbc3c301c6ad, 0xb6f91a8cfdd135dd},
	"inproc/p=7/flat/v3-qsgd8/c=1":  {0xf9b561f394328630, 0x1c295f0d69308da1, 0xdcab9db621a4453b, 0x9ccd6e4875aea296},
	"inproc/p=7/g=2/v1/c=1":         {0x9de34455bf8a80ad, 0xac4320fdadd6e8aa, 0x4a620b7537ebf46e, 0x8ac06fff6ae5df09},
	"inproc/p=7/g=2/v3/c=1":         {0x9de34455bf8a80ad, 0xac4320fdadd6e8aa, 0x2c3647d1c06ea070, 0xfb804d9a8fb10c3c},
	"inproc/p=7/g=2/v3-qsgd8/c=1":   {0xfd7a3dcf8d233805, 0x125a44077863ba39, 0xda9017ed66606a6a, 0x03beb5f0eda760d5},
	"inproc/p=7/g=3/v1/c=1":         {0x399f519459488513, 0xac4320fdadd6e8aa, 0xea34074d5a7f4d24, 0x9248cd917131874f},
	"inproc/p=7/g=3/v3/c=1":         {0x399f519459488513, 0xac4320fdadd6e8aa, 0x63f6b092e7684158, 0x062b6e1b81a1f99d},
	"inproc/p=7/g=3/v3-qsgd8/c=1":   {0xc5b91b9920964822, 0x34e2cb9a2ea086df, 0x9546134e76f59586, 0x85394d2e9904673c},
	"inproc/p=7/g=4/v1/c=1":         {0x9de34455bf8a80ad, 0xac4320fdadd6e8aa, 0x6f7e948efa2156ed, 0x23f46f046efa42cc},
	"inproc/p=7/g=4/v3/c=1":         {0x9de34455bf8a80ad, 0xac4320fdadd6e8aa, 0xaf5a4a908009f241, 0xb6f91a8cfdd135dd},
	"inproc/p=7/g=4/v3-qsgd8/c=1":   {0x3c39d445dfa712f2, 0x53738d7617fc2f0e, 0x96b179bd8da30c89, 0xd76a4caf5d3e535a},
	"inproc/p=8/flat/v1/c=1":        {0x6f4f4d9e3f34a805, 0x6e74791168772ad1, 0x9150ac468047ebc3, 0x9248cd917131874f},
	"inproc/p=8/flat/v3/c=1":        {0x6f4f4d9e3f34a805, 0x6e74791168772ad1, 0x299bcc6c36958850, 0x062b6e1b81a1f99d},
	"inproc/p=8/flat/v3-qsgd8/c=1":  {0x8c50ef669e140825, 0x77619e5adde73cdf, 0x634d4f9c71a410ae, 0x3d39b01af8392880},
	"inproc/p=8/g=2/v1/c=1":         {0x6f4f4d9e3f34a805, 0x6e74791168772ad1, 0x4a620b7537ebf46e, 0x5dc8b894dc78778b},
	"inproc/p=8/g=2/v3/c=1":         {0x6f4f4d9e3f34a805, 0x6e74791168772ad1, 0x2c3647d1c06ea070, 0x694f2a87a2213341},
	"inproc/p=8/g=2/v3-qsgd8/c=1":   {0x1969879c1979cc15, 0x84ebb7db3ae0391a, 0xda9017ed66606a6a, 0x79b36005b9c90d92},
	"inproc/p=8/g=3/v1/c=1":         {0x6877cdfe121ea525, 0x6e74791168772ad1, 0xea34074d5a7f4d24, 0x8ac06fff6ae5df09},
	"inproc/p=8/g=3/v3/c=1":         {0x6877cdfe121ea525, 0x6e74791168772ad1, 0x63f6b092e7684158, 0xfb804d9a8fb10c3c},
	"inproc/p=8/g=3/v3-qsgd8/c=1":   {0x5e3df3c2795ea3d5, 0x76cf52c8b81bec8e, 0x9546134e76f59586, 0x03beb5f0eda760d5},
	"inproc/p=8/g=4/v1/c=1":         {0x6f4f4d9e3f34a805, 0x6e74791168772ad1, 0x6f7e948efa2156ed, 0x9248cd917131874f},
	"inproc/p=8/g=4/v3/c=1":         {0x6f4f4d9e3f34a805, 0x6e74791168772ad1, 0xaf5a4a908009f241, 0x062b6e1b81a1f99d},
	"inproc/p=8/g=4/v3-qsgd8/c=1":   {0x2128149d365c0ea5, 0x4816a9aee76f33ea, 0x96b179bd8da30c89, 0x85394d2e9904673c},
	"inproc/p=9/flat/v1/c=1":        {0xfa829d1e023ce848, 0xd088fb3a32338527, 0x0d793da8d715dacb, 0x9248cd917131874f},
	"inproc/p=9/flat/v3/c=1":        {0xfa829d1e023ce848, 0xd088fb3a32338527, 0x117d50e5fb69b9cf, 0x062b6e1b81a1f99d},
	"inproc/p=9/flat/v3-qsgd8/c=1":  {0xea0ebf2222b77423, 0x34f5e82bae98dd4a, 0x4cbfd8f46cc9ee17, 0x3d39b01af8392880},
	"inproc/p=9/g=2/v1/c=1":         {0xfa829d1e023ce848, 0xd088fb3a32338527, 0xcc8f9ada2d4b507e, 0x5dc8b894dc78778b},
	"inproc/p=9/g=2/v3/c=1":         {0xfa829d1e023ce848, 0xd088fb3a32338527, 0x5be1c6f691cecbc5, 0x694f2a87a2213341},
	"inproc/p=9/g=2/v3-qsgd8/c=1":   {0x2e19bbcf23fcf400, 0x50c99b1bc52fafe6, 0xed9b617e7ab3bf8a, 0x79b36005b9c90d92},
	"inproc/p=9/g=3/v1/c=1":         {0xfa829d1e023ce848, 0xd088fb3a32338527, 0xea34074d5a7f4d24, 0xc2c3b307cdd15888},
	"inproc/p=9/g=3/v3/c=1":         {0xfa829d1e023ce848, 0xd088fb3a32338527, 0x63f6b092e7684158, 0xff1f8c9b0a8f0c0c},
	"inproc/p=9/g=3/v3-qsgd8/c=1":   {0x8499085db7af64e1, 0xe6c8e4e691654f0c, 0x9546134e76f59586, 0xbacfd80c67f547f3},
	"inproc/p=9/g=4/v1/c=1":         {0xfa829d1e023ce848, 0xd088fb3a32338527, 0x0dcec793a0aa77fc, 0x8ac06fff6ae5df09},
	"inproc/p=9/g=4/v3/c=1":         {0xfa829d1e023ce848, 0xd088fb3a32338527, 0x2683d35ca329a74f, 0xfb804d9a8fb10c3c},
	"inproc/p=9/g=4/v3-qsgd8/c=1":   {0x09c3f48d14bb21d8, 0x1c6d4406b057acb4, 0x6ab5c3fb4cb88931, 0x56a2fec28c1e801e},
	"inproc/p=12/flat/v1/c=1":       {0xce89c337c6496925, 0x9664da0ae1e3f74e, 0x711a649aced15bfe, 0x5dc8b894dc78778b},
	"inproc/p=12/flat/v3/c=1":       {0xce89c337c6496925, 0x9664da0ae1e3f74e, 0x42e39d9b08ef48e2, 0x694f2a87a2213341},
	"inproc/p=12/flat/v3-qsgd8/c=1": {0xeb95f7853a9d1845, 0x49ef9af3e8278db8, 0xde5e98cc77eba80a, 0x39ee30b8881ffa2f},
	"inproc/p=12/g=2/v1/c=1":        {0xce89c337c6496925, 0x9664da0ae1e3f74e, 0x2bd1b54417ba856d, 0x36adfb9bd5022e91},
	"inproc/p=12/g=2/v3/c=1":        {0xce89c337c6496925, 0x9664da0ae1e3f74e, 0xc2420882cda5e3ae, 0xb963124501a1ecf2},
	"inproc/p=12/g=2/v3-qsgd8/c=1":  {0x6b1e0e06239e9945, 0x90397990d955c92d, 0x5d3625f3b3e0aaf9, 0xe9f1e71a6f70c9fc},
	"inproc/p=12/g=3/v1/c=1":        {0x298179140f4a964d, 0x9664da0ae1e3f74e, 0x8bd974454f2baae9, 0xc28d515758d91417},
	"inproc/p=12/g=3/v3/c=1":        {0x298179140f4a964d, 0x9664da0ae1e3f74e, 0xd50edc721deef925, 0x7450df54c9b77506},
	"inproc/p=12/g=3/v3-qsgd8/c=1":  {0x7b6bd766200df465, 0x4f38e3360072e151, 0x2b6d225abe12e9bb, 0xde3e117c04abe27b},
	"inproc/p=12/g=4/v1/c=1":        {0xce89c337c6496925, 0x9664da0ae1e3f74e, 0x0dcec793a0aa77fc, 0xc46df332a1599fd5},
	"inproc/p=12/g=4/v3/c=1":        {0xce89c337c6496925, 0x9664da0ae1e3f74e, 0x2683d35ca329a74f, 0x968561c4d3404ebf},
	"inproc/p=12/g=4/v3-qsgd8/c=1":  {0xcd16e027d34f3665, 0x3fac56633f4ef6fa, 0x6ab5c3fb4cb88931, 0x640e5085a56223b3},
	"inproc/p=16/flat/v1/c=1":       {0x366e38ed5892a6e5, 0x7d2b7ea1e5fe3989, 0xc1b55e41a704565d, 0xc28d515758d91417},
	"inproc/p=16/flat/v3/c=1":       {0x366e38ed5892a6e5, 0x7d2b7ea1e5fe3989, 0xd9e8280da87b1f41, 0x7450df54c9b77506},
	"inproc/p=16/flat/v3-qsgd8/c=1": {0x5238acdf94c3bb05, 0x30b37cfa010f86d4, 0x7be55e15ef470479, 0x935e49b492ad5028},
	"inproc/p=16/g=2/v1/c=1":        {0x366e38ed5892a6e5, 0x7d2b7ea1e5fe3989, 0xd2f00a241daac2fb, 0x3fa274b58982479f},
	"inproc/p=16/g=2/v3/c=1":        {0x366e38ed5892a6e5, 0x7d2b7ea1e5fe3989, 0x18231c689d6e8a8a, 0x8dc64b89745f17cf},
	"inproc/p=16/g=2/v3-qsgd8/c=1":  {0x36cbdf1a60a805c5, 0xdb815c3966674b0f, 0xba6a192b68260d17, 0x92936905ffc1ba09},
	"inproc/p=16/g=3/v1/c=1":        {0x2546615d2206d605, 0x7d2b7ea1e5fe3989, 0xe409e393fbea6952, 0x9cd93e86ade63122},
	"inproc/p=16/g=3/v3/c=1":        {0x2546615d2206d605, 0x7d2b7ea1e5fe3989, 0xff53dfcf1c9e6c88, 0x4d1fadc3d8bca974},
	"inproc/p=16/g=3/v3-qsgd8/c=1":  {0xb04ff33864859665, 0xa71886257c2f2dcc, 0x6c53d2d0f8fff7d5, 0x05415ccdc52a637a},
	"inproc/p=16/g=4/v1/c=1":        {0x366e38ed5892a6e5, 0x7d2b7ea1e5fe3989, 0x3ac13f1883df8c8f, 0xbf01bf27f690e253},
	"inproc/p=16/g=4/v3/c=1":        {0x366e38ed5892a6e5, 0x7d2b7ea1e5fe3989, 0x6dfa9f6c9f2a5613, 0x0cebaeafafefeae0},
	"inproc/p=16/g=4/v3-qsgd8/c=1":  {0xbefb27e6c2f412c5, 0x3e33ced3f1da541d, 0x9996a57fb8543aed, 0xf7cb01c3d381eab6},
	"tcp/p=8/flat/v1/c=1":           {0x6f4f4d9e3f34a805, 0x6e74791168772ad1, 0x9150ac468047ebc3, 0x9248cd917131874f},
	"tcp/p=8/flat/v3-qsgd8/c=1":     {0x8c50ef669e140825, 0x77619e5adde73cdf, 0x634d4f9c71a410ae, 0x3d39b01af8392880},
	"tcp/p=8/g=4/v1/c=1":            {0x6f4f4d9e3f34a805, 0x6e74791168772ad1, 0x6f7e948efa2156ed, 0x9248cd917131874f},
	"tcp/p=8/g=4/v3-qsgd8/c=1":      {0x2128149d365c0ea5, 0x4816a9aee76f33ea, 0x96b179bd8da30c89, 0x85394d2e9904673c},

	// The baselines' collectives: Top-k and naive gTop-k exchange through
	// AllGather, PS gTop-k gathers at rank 0.
	"inproc/p=1/topk/v1/c=1":               {0x7ef35898120588ca, 0x7ef35898120588ca, 0xa8c7f832281a39c5, 0xdbaee47488ba6da4},
	"inproc/p=1/topk/v3/c=1":               {0x7ef35898120588ca, 0x7ef35898120588ca, 0xa8c7f832281a39c5, 0x3221c9ad982a0ece},
	"inproc/p=1/topk/v3-qsgd8/c=1":         {0x6988946f89e74b17, 0x6988946f89e74b17, 0xa8c7f832281a39c5, 0x164bc2db704a1e68},
	"inproc/p=2/topk/v1/c=1":               {0x612019154e2b7779, 0x24a321d6de3e623f, 0x8f7229ba8b0a760d, 0x4f35120a916c8247},
	"inproc/p=2/topk/v3/c=1":               {0x612019154e2b7779, 0x24a321d6de3e623f, 0xea1fab3dee1418aa, 0x0444a43458d17393},
	"inproc/p=2/topk/v3-qsgd8/c=1":         {0x3d18445882a0d4d9, 0x60cb2c110126a60e, 0xf31aa5055491d26b, 0xb41b3f690f8085df},
	"inproc/p=4/topk/v1/c=1":               {0xe92257dcf776f265, 0x1229cf4ba6d528fd, 0x871cf6208fcf285c, 0x87791cb5339cc521},
	"inproc/p=4/topk/v3/c=1":               {0xe92257dcf776f265, 0x1229cf4ba6d528fd, 0xa2cc4be57e596df3, 0xe144b199715b49c9},
	"inproc/p=4/topk/v3-qsgd8/c=1":         {0xf092e42f14d8af4d, 0x367cf6d6838172c3, 0x3b05cdf9c6bfe76a, 0x912bf2dceea6d876},
	"inproc/p=8/topk/v1/c=1":               {0x13ae81523e6a0895, 0x6e74791168772ad1, 0x3e2520cae0690b3d, 0xa0839e0a486ff1ed},
	"inproc/p=8/topk/v3/c=1":               {0x13ae81523e6a0895, 0x6e74791168772ad1, 0x36d97dfd3ed0a8e3, 0x2cd2efac8bd4f4c2},
	"inproc/p=8/topk/v3-qsgd8/c=1":         {0x738f8d9c320f7655, 0xd2225fb63f6eb917, 0x69f77068e3518857, 0x3685c5d446df0817},
	"inproc/p=16/topk/v1/c=1":              {0x4154945133182ba5, 0x7d2b7ea1e5fe3989, 0x479911904db4e6eb, 0xc46df332a1599fd5},
	"inproc/p=16/topk/v3/c=1":              {0x4154945133182ba5, 0x7d2b7ea1e5fe3989, 0x8e15ea79dcfa5bd3, 0x968561c4d3404ebf},
	"inproc/p=16/topk/v3-qsgd8/c=1":        {0x4a95df968ad167e5, 0x4a224bda8549f036, 0x7e79b0e8daba5f43, 0x6dd5c74c15dcdca9},
	"tcp/p=8/topk/v1/c=1":                  {0x13ae81523e6a0895, 0x6e74791168772ad1, 0x3e2520cae0690b3d, 0xa0839e0a486ff1ed},
	"inproc/p=1/gtopk-naive/v1/c=1":        {0x7ef35898120588ca, 0x7ef35898120588ca, 0xa8c7f832281a39c5, 0xdbaee47488ba6da4},
	"inproc/p=1/gtopk-naive/v3/c=1":        {0x7ef35898120588ca, 0x7ef35898120588ca, 0xa8c7f832281a39c5, 0x3221c9ad982a0ece},
	"inproc/p=1/gtopk-naive/v3-qsgd8/c=1":  {0x6988946f89e74b17, 0x6988946f89e74b17, 0xa8c7f832281a39c5, 0x164bc2db704a1e68},
	"inproc/p=2/gtopk-naive/v1/c=1":        {0xddd8e059862f23dd, 0x24a321d6de3e623f, 0x8f7229ba8b0a760d, 0x4f35120a916c8247},
	"inproc/p=2/gtopk-naive/v3/c=1":        {0xddd8e059862f23dd, 0x24a321d6de3e623f, 0xea1fab3dee1418aa, 0x0444a43458d17393},
	"inproc/p=2/gtopk-naive/v3-qsgd8/c=1":  {0x30ba5c530978fc05, 0x60cb2c110126a60e, 0xf31aa5055491d26b, 0xb41b3f690f8085df},
	"inproc/p=4/gtopk-naive/v1/c=1":        {0x9eac706eaa1375ed, 0x1229cf4ba6d528fd, 0x871cf6208fcf285c, 0x87791cb5339cc521},
	"inproc/p=4/gtopk-naive/v3/c=1":        {0x9eac706eaa1375ed, 0x1229cf4ba6d528fd, 0xa2cc4be57e596df3, 0xe144b199715b49c9},
	"inproc/p=4/gtopk-naive/v3-qsgd8/c=1":  {0xfda519820ec6f18d, 0x367cf6d6838172c3, 0x3b05cdf9c6bfe76a, 0x912bf2dceea6d876},
	"inproc/p=8/gtopk-naive/v1/c=1":        {0x034dab69fc85eca5, 0x6e74791168772ad1, 0x3e2520cae0690b3d, 0xa0839e0a486ff1ed},
	"inproc/p=8/gtopk-naive/v3/c=1":        {0x034dab69fc85eca5, 0x6e74791168772ad1, 0x36d97dfd3ed0a8e3, 0x2cd2efac8bd4f4c2},
	"inproc/p=8/gtopk-naive/v3-qsgd8/c=1":  {0xcf5f0ed189205f75, 0xd2225fb63f6eb917, 0x69f77068e3518857, 0x3685c5d446df0817},
	"inproc/p=16/gtopk-naive/v1/c=1":       {0x45bd3036669f4de5, 0x7d2b7ea1e5fe3989, 0x479911904db4e6eb, 0xc46df332a1599fd5},
	"inproc/p=16/gtopk-naive/v3/c=1":       {0x45bd3036669f4de5, 0x7d2b7ea1e5fe3989, 0x8e15ea79dcfa5bd3, 0x968561c4d3404ebf},
	"inproc/p=16/gtopk-naive/v3-qsgd8/c=1": {0x7f9268b0dbb68b25, 0x4a224bda8549f036, 0x7e79b0e8daba5f43, 0x6dd5c74c15dcdca9},
	"tcp/p=8/gtopk-naive/v1/c=1":           {0x034dab69fc85eca5, 0x6e74791168772ad1, 0x3e2520cae0690b3d, 0xa0839e0a486ff1ed},
	"inproc/p=1/gtopk-ps/v1/c=1":           {0x7ef35898120588ca, 0x7ef35898120588ca, 0xa8c7f832281a39c5, 0x81d23fd7003c2305},
	"inproc/p=1/gtopk-ps/v3/c=1":           {0x7ef35898120588ca, 0x7ef35898120588ca, 0xa8c7f832281a39c5, 0x81d23fd7003c2305},
	"inproc/p=1/gtopk-ps/v3-qsgd8/c=1":     {0x7ef35898120588ca, 0x7ef35898120588ca, 0xa8c7f832281a39c5, 0x81d23fd7003c2305},
	"inproc/p=2/gtopk-ps/v1/c=1":           {0xddd8e059862f23dd, 0x24a321d6de3e623f, 0x8aa2d42b22a6c6f4, 0x4f35120a916c8247},
	"inproc/p=2/gtopk-ps/v3/c=1":           {0xddd8e059862f23dd, 0x24a321d6de3e623f, 0xeab29a00b04f582e, 0x0444a43458d17393},
	"inproc/p=2/gtopk-ps/v3-qsgd8/c=1":     {0x27772ee62face72d, 0x5e458916c34100b5, 0x5f991c6f70cf2af8, 0xb41b3f690f8085df},
	"inproc/p=3/gtopk-ps/v1/c=1":           {0x8793d742f554af44, 0xcfc905e9ce28ab8c, 0xdceeca3ce7f7690a, 0xc6406f7a9e87bd86},
	"inproc/p=3/gtopk-ps/v3/c=1":           {0x8793d742f554af44, 0xcfc905e9ce28ab8c, 0x6f3eef4332cad54b, 0xcb00e17852220c9f},
	"inproc/p=3/gtopk-ps/v3-qsgd8/c=1":     {0x36b5e6f1fef08fd7, 0xdf05ca5178b3ce97, 0xc0659accd9613597, 0x3878b5770f3ad2b5},
	"inproc/p=4/gtopk-ps/v1/c=1":           {0x9eac706eaa1375ed, 0x1229cf4ba6d528fd, 0x5991d08b0e612539, 0x87791cb5339cc521},
	"inproc/p=4/gtopk-ps/v3/c=1":           {0x9eac706eaa1375ed, 0x1229cf4ba6d528fd, 0x71d54065d6746a7e, 0xe144b199715b49c9},
	"inproc/p=4/gtopk-ps/v3-qsgd8/c=1":     {0x74cb2b4b1301209d, 0x238334c2b26da4ad, 0xcf401d290039550f, 0x912bf2dceea6d876},
	"inproc/p=5/gtopk-ps/v1/c=1":           {0x20146889e9af1eb8, 0xcdf5c1519f0daaa6, 0x0ca17f8ab2991142, 0xf9cbe4ea4a1e52e0},
	"inproc/p=5/gtopk-ps/v3/c=1":           {0x20146889e9af1eb8, 0xcdf5c1519f0daaa6, 0x88f425a1f965b7f4, 0xe171d728d530535a},
	"inproc/p=5/gtopk-ps/v3-qsgd8/c=1":     {0xdb09ca3606d808b9, 0x55f85e5bb5b700a5, 0x671f2bbd0381581c, 0x919fab375bc1fccb},
	"inproc/p=6/gtopk-ps/v1/c=1":           {0x32b3d4eac972e509, 0x5e9aeec6ccabc857, 0x005cb1a491da8242, 0x0a8906226318abe3},
	"inproc/p=6/gtopk-ps/v3/c=1":           {0x32b3d4eac972e509, 0x5e9aeec6ccabc857, 0xba4ad50ccaf7163b, 0x439cd6193823f84a},
	"inproc/p=6/gtopk-ps/v3-qsgd8/c=1":     {0x19dbdacc033e0a15, 0xfaef62861bbdc328, 0x9350906338a66564, 0x3b626852c901ccf1},
	"inproc/p=7/gtopk-ps/v1/c=1":           {0x47688232e6b8aefe, 0xac4320fdadd6e8aa, 0xb8dd44547d68cc70, 0x2241aec05dbae2d2},
	"inproc/p=7/gtopk-ps/v3/c=1":           {0x47688232e6b8aefe, 0xac4320fdadd6e8aa, 0x5ec16563f7dc3ed2, 0x2f4d34934713d9a5},
	"inproc/p=7/gtopk-ps/v3-qsgd8/c=1":     {0x720a69a24503c1cf, 0x76f057d6ea5caef7, 0x41bd1450faa395fb, 0xfb0a7ca8ec3f58b8},
	"inproc/p=8/gtopk-ps/v1/c=1":           {0x034dab69fc85eca5, 0x6e74791168772ad1, 0x9b29e2151ab37307, 0xa0839e0a486ff1ed},
	"inproc/p=8/gtopk-ps/v3/c=1":           {0x034dab69fc85eca5, 0x6e74791168772ad1, 0x90bda759263d9fb8, 0x2cd2efac8bd4f4c2},
	"inproc/p=8/gtopk-ps/v3-qsgd8/c=1":     {0x1de1ecbb0cc19485, 0x9691ba4029e06508, 0xc2dcd7e4ccd2dee7, 0x3685c5d446df0817},
	"inproc/p=9/gtopk-ps/v1/c=1":           {0xa76f87eb107db946, 0xd088fb3a32338527, 0xa2e444fed09cd072, 0x23f46f046efa42cc},
	"inproc/p=9/gtopk-ps/v3/c=1":           {0xa76f87eb107db946, 0xd088fb3a32338527, 0x61023d02045b5b05, 0xb6f91a8cfdd135dd},
	"inproc/p=9/gtopk-ps/v3-qsgd8/c=1":     {0x7778da92ffa52fe4, 0x5533912f7a6bba44, 0x0ddec1dddd71c07e, 0x9ccd6e4875aea296},
	"inproc/p=12/gtopk-ps/v1/c=1":          {0xc0081fe65fc1bbbd, 0x9664da0ae1e3f74e, 0x0698deb9c8ca8ddf, 0x8ac06fff6ae5df09},
	"inproc/p=12/gtopk-ps/v3/c=1":          {0xc0081fe65fc1bbbd, 0x9664da0ae1e3f74e, 0xdac16567dbea8911, 0xfb804d9a8fb10c3c},
	"inproc/p=12/gtopk-ps/v3-qsgd8/c=1":    {0x51ce1e7c8e9fa345, 0x961d1e4b1621c5ff, 0x105a31f559b53fda, 0x2c59afcaf59a2d4a},
	"inproc/p=16/gtopk-ps/v1/c=1":          {0x45bd3036669f4de5, 0x7d2b7ea1e5fe3989, 0xf1b7356012a523a4, 0xc46df332a1599fd5},
	"inproc/p=16/gtopk-ps/v3/c=1":          {0x45bd3036669f4de5, 0x7d2b7ea1e5fe3989, 0x0297dfc3a9377b41, 0x968561c4d3404ebf},
	"inproc/p=16/gtopk-ps/v3-qsgd8/c=1":    {0x43d3b45b2aa65d25, 0x543747e2efbdd86a, 0x0df6abdf436ff3d9, 0x6dd5c74c15dcdca9},
	"tcp/p=8/gtopk-ps/v1/c=1":              {0x034dab69fc85eca5, 0x6e74791168772ad1, 0x9b29e2151ab37307, 0xa0839e0a486ff1ed},
}
