package cluster

import (
	"context"
	"encoding/binary"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzControlDecode throws arbitrary bytes at the control-plane codec:
// whatever arrives on a coordinator or member socket — malformed JSON,
// truncated frames, duplicate or contradictory fields, binary noise —
// decoding must either yield a message or fail with an error. Panics
// and hangs are the bugs this hunts: a coordinator's accept loop reads
// from unauthenticated TCP, so a garbage line must never take the
// control plane down. Config payloads that decode are additionally run
// through validateConfig, which must reject every inconsistent shape
// the runtime would trip over.
func FuzzControlDecode(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"t":"join","name":"w0","addr":"127.0.0.1:9"}` + "\n"),
		[]byte(`{"t":"welcome","hb_ms":500,"dead_ms":2500,"parked":true}` + "\n"),
		[]byte(`{"t":"config","config":{"epoch":1,"rank":0,"world":2,"names":["a","b"],"addrs":["x:1","y:2"]}}` + "\n"),
		[]byte(`{"t":"hb"}` + "\n" + `{"t":"leave","done":true}` + "\n"),
		[]byte(`{"t":"config","config":{"epoch":0,"rank":9,"world":-2}}` + "\n"),
		[]byte(`{"t":"config","config":{"epoch":1,"rank":0,"world":3,"names":["a"],"addrs":[]}}` + "\n"),
		[]byte(`{"t":"join","name":"w0"`),                                // truncated mid-message
		[]byte(`{"t":"join","name":"w0","name":"w1","addr":"x"}` + "\n"), // duplicate field
		[]byte("\x00\xff\xfe garbage\n{}\n"),
		[]byte(`{"t":"abort","reason":"boom"}`),
		[]byte(`[1,2,3]` + "\n"),
		[]byte(`"just a string"` + "\n" + `{"t":"hb"}` + "\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		defer server.Close() //nolint:errcheck // also unblocks a stuck writer
		go func() {
			client.Write(data) //nolint:errcheck // reader may close first
			client.Close()     //nolint:errcheck // writer done
		}()
		codec := newCodec(server)
		// Bound the drain: a stream of tiny valid messages is fine, we
		// only need enough of them to prove the codec keeps its footing.
		for i := 0; i < 64; i++ {
			m, err := codec.read()
			if err != nil {
				return // clean error is the contract for malformed input
			}
			if m.T == msgConfig {
				if verr := validateConfig(m.Config); verr == nil {
					c := m.Config
					if c.World < 1 || c.Rank < 0 || c.Rank >= c.World ||
						len(c.Names) != c.World || len(c.Addrs) != c.World || c.Epoch < 1 {
						t.Fatalf("validateConfig accepted inconsistent config %+v", c)
					}
				}
			}
		}
	})
}

// TestCoordinatorSurvivesGarbageConn proves the accept loop shrugs off
// hostile or broken connections: binary noise, a non-join first
// message, a join with no data address, and a truncated frame each get
// an explicit rejection (or a plain close) — and afterwards two honest
// workers still rendezvous into epoch 1.
func TestCoordinatorSurvivesGarbageConn(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	addr, _, _ := startCoordinator(t, ctx, fastHB(CoordinatorConfig{World: 2}))

	garbage := []struct {
		name string
		send string
	}{
		{"binary noise", "\x00\x01\x02 not json\n"},
		{"non-join first message", `{"t":"hb"}` + "\n"},
		{"join without addr", `{"t":"join","name":"x"}` + "\n"},
		{"join without name", `{"t":"join","addr":"127.0.0.1:9"}` + "\n"},
		{"truncated join", `{"t":"join","na`},
	}
	for _, g := range garbage {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(g.send)); err != nil {
			t.Fatalf("%s: write: %v", g.name, err)
		}
		if g.name == "truncated join" {
			// Half a frame then a hangup: the coordinator's read errors
			// and the handler exits; nothing to read back.
			conn.Close() //nolint:errcheck // deliberate hangup
			continue
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // bound the reject read
		buf := make([]byte, 512)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%s: no rejection before close: %v", g.name, err)
		}
		if !strings.Contains(string(buf[:n]), `"reject"`) {
			t.Fatalf("%s: response %q, want an explicit reject", g.name, buf[:n])
		}
		conn.Close() //nolint:errcheck // test teardown
	}

	// The control plane must still be fully operational.
	a, err := Join(ctx, addr, "alpha", "127.0.0.1:1")
	if err != nil {
		t.Fatalf("honest join after garbage: %v", err)
	}
	defer a.Close() //nolint:errcheck // test teardown
	b, err := Join(ctx, addr, "bravo", "127.0.0.1:2")
	if err != nil {
		t.Fatalf("second honest join after garbage: %v", err)
	}
	defer b.Close() //nolint:errcheck // test teardown
	conf := awaitConfig(t, ctx, a, 1)
	if conf.World != 2 {
		t.Fatalf("epoch-1 world %d, want 2 (garbage conns must not occupy slots)", conf.World)
	}
}

// FuzzResumeVerdict feeds readVerdict the two kinds of bytes a rank
// reads from rank 0: the verdict resumeVerdict folds from gathered
// (iteration, checksum) blobs cut from the input, and the raw input
// itself. Decoding never panics; it accepts every fold of well-formed
// blobs whose iterations fit the job and refuses one whose iterations
// do not; and whatever it accepts is in range — a resume iteration in
// [0, steps], a donor and a laggard count below the world.
func FuzzResumeVerdict(f *testing.F) {
	blob := func(iter uint64, crc uint32) []byte {
		b := binary.LittleEndian.AppendUint64(nil, iter)
		return binary.LittleEndian.AppendUint32(b, crc)
	}
	f.Add(slices.Concat(blob(10, 7), blob(10, 7)), uint8(1), uint16(10))
	f.Add(slices.Concat(blob(0, 1), blob(20, 9), blob(20, 9)), uint8(2), uint16(20))
	f.Add(slices.Concat(blob(5, 1), blob(5, 2)), uint8(1), uint16(10))
	f.Add(append([]byte{'K'}, make([]byte, 16)...), uint8(0), uint16(0))
	f.Add([]byte("Kxxxxxxxxxxxxxxxx"), uint8(3), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, world uint8, steps uint16) {
		w := int(world%8) + 1
		decode := func(v []byte) error {
			resume, donor, laggards, err := readVerdict(v, w, int(steps))
			if err == nil && (resume < 0 || resume > int(steps) || donor < 0 || donor >= w || laggards < 0 || laggards >= w) {
				t.Fatalf("readVerdict(%x) accepted resume %d, donor %d, %d laggards at world %d, %d steps", v, resume, donor, laggards, w, steps)
			}
			return err
		}
		decode(data) //nolint:errcheck // raw peer bytes: only the range holds
		if len(data) < 12*w {
			return
		}
		blobs, top := make([][]byte, w), uint64(0)
		for r := range blobs {
			blobs[r] = data[12*r : 12*r+12]
			top = max(top, binary.LittleEndian.Uint64(blobs[r]))
		}
		v := resumeVerdict(blobs)
		if err := decode(v); v[0] == 'K' && (err == nil) != (top <= uint64(steps)) {
			t.Fatalf("the fold of %x (top iteration %d, %d steps) decodes with %v", blobs, top, steps, err)
		}
	})
}
