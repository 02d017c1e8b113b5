package engine

import (
	"fmt"
	"os"
	"testing"

	"terids/internal/testutil"
)

// TestMain gates the package on goroutine hygiene: every Engine the tests
// start must be fully torn down by Close — no orphaned impute workers, shard
// loops, mergers, skew monitors, or follower tails survive the suite. Re-exec'd
// with internOrderEnv set it is TestInternOrderInvisible's child instead.
func TestMain(m *testing.M) {
	if order := os.Getenv(internOrderEnv); order != "" {
		if err := internOrderChild(order); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	testutil.VerifyNoLeaks(m)
}
