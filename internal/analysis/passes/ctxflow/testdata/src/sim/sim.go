// Package sim is outside the ctxflow scope (not farm/server): the
// same shapes report nothing.
package sim

import "context"

func Run(ctx context.Context) error {
	c := context.Background() // out of scope: no finding
	_ = c
	return ctx.Err()
}

func Spin(ticks chan int) {
	for {
		select { // out of scope: no finding
		case t := <-ticks:
			_ = t
		}
	}
}
