package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/collector"
)

// TestShipRoundsFollowsRedirect: a worker aimed at a shard that has
// departed is answered with TRedirect on every handshake. ShipRounds must
// re-hash its source over the redirect's members, as fluct -ship does for
// its first dial, and deliver every round to the new owner.
func TestShipRoundsFollowsRedirect(t *testing.T) {
	useRegistry(t)
	from, lFrom, err := StartCollector(collector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lFrom.Close() })
	to, lTo, err := StartCollector(collector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lTo.Close() })
	from.Depart([]string{lTo.Addr().String()})

	const rounds = 2
	st, err := ShipRounds(context.Background(), ShipConfig{
		Addr: lFrom.Addr().String(), Source: "worker-0",
		Rounds: rounds, Requests: 100, interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != rounds || st.Undelivered != 0 {
		t.Fatalf("shipped %d of %d rounds, %d frames undelivered", st.Rounds, rounds, st.Undelivered)
	}
	if got := to.Fleet().Sources; len(got) != 1 || got[0].ID != "worker-0" || got[0].Sets != rounds {
		t.Fatalf("new owner's fleet = %+v, want one worker-0 row with %d sets", got, rounds)
	}
	if got := from.Fleet().Sources; len(got) != 0 {
		t.Fatalf("departed shard's fleet = %+v, want no rows", got)
	}
}
