// Retry budgets: a token bucket that caps the *ratio* of retries to
// successes, Finagle-style, instead of the per-call attempt count alone.
// Per-call retry limits compose badly — three layers each allowed 3
// attempts can turn one slow member into a 27x traffic storm — while a
// shared budget is a global invariant: across every call drawing from
// it, retries (and hedges, which are speculative retries) cannot exceed
// roughly Ratio of recent successes plus a small fixed reserve for
// cold starts and incident recovery.
package resil

import (
	"errors"
	"sync"
)

// ErrRetryBudget is returned (wrapping the attempt's own error) when a
// call would have been retried or hedged but the shared retry budget is
// exhausted. It is deliberately non-retryable: the budget being empty
// means the backend is already failing broadly, and more attempts are
// fuel on the fire.
var ErrRetryBudget = errors.New("resil: retry budget exhausted")

// Default retry-budget tuning.
const (
	// DefaultRetryRatio is the fraction of successes earned back as
	// retry tokens: retries + hedges ≤ ~10% of successful calls.
	DefaultRetryRatio = 0.1
	// DefaultRetryReserve is the bucket's initial balance and cap-floor,
	// so a cold client (or one recovering from a full outage, when there
	// are no recent successes to earn from) can still probe.
	DefaultRetryReserve = 10
)

// RetryBudget is a shared token bucket governing retries and hedges.
// Successful calls deposit Ratio tokens; each retry or hedge withdraws
// one whole token. One budget may be shared by many Clients (the
// cluster client shares one across all member pools), making the cap a
// fleet-wide property rather than per-connection-pool.
type RetryBudget struct {
	ratio float64
	cap   float64

	mu     sync.Mutex
	tokens float64
}

// NewRetryBudget returns a budget earning ratio tokens per success,
// holding at most reserve banked tokens beyond the steady-state earn
// rate, and starting with reserve tokens. Non-positive arguments select
// the defaults.
func NewRetryBudget(ratio float64, reserve int) *RetryBudget {
	if ratio <= 0 {
		ratio = DefaultRetryRatio
	}
	if reserve <= 0 {
		reserve = DefaultRetryReserve
	}
	return &RetryBudget{ratio: ratio, cap: float64(reserve), tokens: float64(reserve)}
}

// Deposit credits one successful call.
func (b *RetryBudget) Deposit() {
	b.mu.Lock()
	b.tokens = min(b.tokens+b.ratio, b.cap)
	b.mu.Unlock()
}

// Withdraw takes one token for a retry or hedge attempt, reporting
// whether the budget allowed it.
func (b *RetryBudget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	return ok
}
