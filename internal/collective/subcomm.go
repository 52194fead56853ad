package collective

import (
	"fmt"

	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
)

// subcommTagSpan is the tag space reserved for each forked child
// communicator. Tags inside a child never leave [base, base+span), so
// collectives issued concurrently on different children cannot interleave
// on the wire even though they share one transport endpoint. 2^22 tags
// per child leaves room for millions of collective invocations, far
// beyond any training run in this repository.
const subcommTagSpan = 1 << 22

// Fork splits off n child communicators that share c's transport endpoint
// but each own a disjoint tag space. The parent and every child remain
// independently usable, with one rule: a given (parent or child) must not
// be used from two goroutines at once, but DIFFERENT children may issue
// collectives concurrently — this is what the bucketed aggregation
// pipeline uses to overlap per-bucket gTopKAllReduce calls.
//
// Fork is itself a collective in spirit: every rank must fork the same
// communicator the same number of times in the same order, so child i on
// rank A talks to child i on rank B. Children start untimed and with
// fresh statistics; attach clocks with WithClock and fold counters back
// with AddStats. A child's finite tag span cannot hold nested spans, so
// re-forking a child panics on first use — fork the parent instead.
func (c *Comm) Fork(n int) ([]*Comm, error) {
	if n < 1 {
		return nil, fmt.Errorf("collective: fork into %d children", n)
	}
	base := c.claimTags(n * subcommTagSpan)
	kids := make([]*Comm, n)
	for i := range kids {
		kids[i] = &Comm{
			conn:     c.conn,
			nextTag:  base + i*subcommTagSpan,
			tagLimit: base + (i+1)*subcommTagSpan,
			comp:     forkCompressor(c.comp, uint64(i)),
			tally:    c.tally,
			links:    c.links,
		}
	}
	return kids, nil
}

// forkCompressor derives child i's compound-pipeline transform; nil
// parents stay nil. Each child gets its own stochastic stream so
// concurrently running children never contend on (or reorder draws
// from) a shared rng.
func forkCompressor(comp sparse.Compressor, stream uint64) sparse.Compressor {
	if comp == nil {
		return nil
	}
	return comp.Fork(stream)
}

// Model returns the α-β cost model attached via WithClock; ok is false
// when the communicator is untimed.
func (c *Comm) Model() (model netsim.Model, ok bool) {
	return c.model, c.timed
}

// AddStats folds externally accumulated counters (typically a forked
// child's) into this communicator's totals, so per-rank statistics stay
// complete when traffic flows through sub-communicators. Call it from the
// goroutine that owns c.
func (c *Comm) AddStats(s Stats) {
	c.stats.Add(s)
}

// Add accumulates o into s field-wise.
func (s *Stats) Add(o Stats) {
	s.MsgsSent += o.MsgsSent
	s.MsgsRecv += o.MsgsRecv
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.Rounds += o.Rounds
}
