package resil

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/orb"
)

// TestClassify is the error table every attempt decision reads, each
// error bare and as the wrapped error a call returns.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{orb.ErrDial, Again | Condemn | Strike},
		{orb.ErrConnClosed, Again | Condemn | Strike},
		{orb.ErrStreamProto, Again | Condemn | Strike},
		{errors.New("resil: no usable connection"), Again | Condemn | Strike},
		{orb.ErrOverloaded, Again | Strike | Dup},
		{orb.ErrDeadline, Elsewhere | Condemn | Strike | Dup},
		{orb.ErrUnavailable, Elsewhere},
		{ErrClosed, Elsewhere},
		{orb.ErrCanceled, Condemn},
		{orb.ErrExpired, 0},
		{orb.ErrServerPanic, 0},
		{orb.ErrFrameTooLarge, 0},
		{&orb.RemoteError{Msg: "boom"}, 0},
		{ErrRetryBudget, 0},
		{ErrLost, 0},
	}
	for _, c := range cases {
		for _, err := range []error{c.err, fmt.Errorf("resil: 3 attempts to x failed: %w", c.err)} {
			if got := Classify(err); got != c.want {
				t.Errorf("Classify(%v) = %05b, want %05b", err, got, c.want)
			}
		}
	}
}
