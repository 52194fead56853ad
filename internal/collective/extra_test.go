package collective

import (
	"context"
	"fmt"
	"testing"

	"gtopkssgd/internal/prng"
)

func TestGatherRoundTrip(t *testing.T) {
	const p = 4
	runSPMD(t, p, func(c *Comm) error {
		ctx := context.Background()
		mine := []byte(fmt.Sprintf("payload-from-%d", c.Rank()))
		gathered, err := c.Gather(ctx, 1, mine)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			for r, blob := range gathered {
				if want := fmt.Sprintf("payload-from-%d", r); string(blob) != want {
					return fmt.Errorf("gathered[%d] = %q", r, blob)
				}
			}
		} else if gathered != nil {
			return fmt.Errorf("non-root received gather output")
		}
		if _, err := c.Gather(ctx, p, mine); err == nil {
			return fmt.Errorf("gather root %d accepted", p)
		}
		return nil
	})
}

func TestBcastFloat32sAllRootsAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for root := 0; root < p; root++ {
			t.Run(fmt.Sprintf("p=%d/root=%d", p, root), func(t *testing.T) {
				const n = 41
				want := make([]float32, n)
				src := prng.New(uint64(p*1000 + root))
				for i := range want {
					want[i] = float32(src.NormFloat64())
				}
				runSPMD(t, p, func(c *Comm) error {
					var vec []float32
					if c.Rank() == root {
						vec = append([]float32(nil), want...)
					}
					got, err := c.BcastFloat32s(context.Background(), root, vec)
					if err != nil {
						return err
					}
					if len(got) != n {
						return fmt.Errorf("rank %d got %d floats, want %d", c.Rank(), len(got), n)
					}
					for i := range got {
						if got[i] != want[i] {
							return fmt.Errorf("rank %d elem %d: %v, want %v (must be bit-exact)", c.Rank(), i, got[i], want[i])
						}
					}
					return nil
				})
			})
		}
	}
}

func TestBcastFloat32sEmptyVector(t *testing.T) {
	runSPMD(t, 3, func(c *Comm) error {
		got, err := c.BcastFloat32s(context.Background(), 0, nil)
		if err != nil {
			return err
		}
		if len(got) != 0 {
			return fmt.Errorf("rank %d got %d floats from empty bcast", c.Rank(), len(got))
		}
		return nil
	})
}
