package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/golden"
)

// TestDaemon runs the collector daemon on loopback ports with a checkpoint,
// ships it one request round, and diffs each HTTP view and the final fleet
// report against its golden file. The round is deterministic, so any
// difference is a behaviour change.
func TestDaemon(t *testing.T) {
	listen, httpAd := freeAddr(t), freeAddr(t)
	ckpt := filepath.Join(t.TempDir(), "checkpoint.json")
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, &out, []string{"-listen", listen, "-http", httpAd, "-checkpoint", ckpt, "-detect"})
	}()

	st, err := experiments.ShipRounds(ctx, experiments.ShipConfig{Addr: listen, Source: "worker-0", Rounds: 1})
	if err != nil || st.Rounds != 1 || st.Undelivered != 0 {
		t.Fatalf("shipped %+v: %v", st, err)
	}
	for _, view := range []string{"fleet", "healthz", "verdicts"} {
		t.Run(view, func(t *testing.T) {
			golden.Check(t, filepath.Join("testdata", view+".golden"), get(t, "http://"+httpAd+"/"+view))
		})
	}

	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	t.Run("report", func(t *testing.T) {
		golden.Check(t, filepath.Join("testdata", "report.golden"), out.Bytes())
	})
	t.Run("checkpoint", func(t *testing.T) {
		if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
			t.Fatalf("checkpoint after shutdown: %v", err)
		}
	})
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// get returns the body of url, retrying while the daemon's HTTP listener
// is not up yet.
func get(t *testing.T, url string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			return body
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
