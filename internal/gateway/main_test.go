package gateway

import (
	"testing"

	"repro/internal/testutil"
)

// The orb servers this package's tests start keep workers parked on every
// connection; those, the read loops and everything the package itself
// starts must have ended by the time the tests are over.
func TestMain(m *testing.M) { testutil.LeakFence(m) }
