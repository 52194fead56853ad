package transport

import "context"

// SendVec sends frames to one (dst, tag) stream as one plain Send per
// frame, in slice order; every gTop-k hop is one frame, so no engine
// path sends a batch. For benchmark/ only; delete with ROADMAP item
// 1(a).
func SendVec(ctx context.Context, c Conn, dst, tag int, frames [][]byte) error {
	for _, payload := range frames {
		if err := c.Send(ctx, dst, tag, payload); err != nil {
			return err
		}
	}
	return nil
}
