package testutil

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/limits"
)

// BudgetLaw holds one input of a frontend's fuzz target to the budget
// law: parsed under a small budget, it ends as it does under the default
// budget (the same success, or the same error text), or it fails with an
// error wrapping limits.ErrBudget. parse parses the input under the
// budget it is given.
func BudgetLaw(t *testing.T, parse func(limits.Budget) error) {
	t.Helper()
	small := parse(limits.Budget{MaxBytes: 1 << 16, MaxTokens: 1 << 12, MaxDepth: 64})
	if errors.Is(small, limits.ErrBudget) {
		return
	}
	if large := parse(limits.Budget{}); fmt.Sprint(small) != fmt.Sprint(large) {
		t.Errorf("under a small budget: %v\nunder the default budget: %v", small, large)
	}
}
