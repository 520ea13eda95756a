package orb

import (
	"testing"

	"repro/internal/testutil"
)

// Every server and client a test starts must have ended — read loops,
// handler goroutines, stream context watchers — by the time the package's
// tests are over.
func TestMain(m *testing.M) { testutil.LeakFence(m) }
