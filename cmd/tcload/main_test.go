package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
)

// graphRun can be rerun against a live server: each run names its
// tenants under its own prefix (so a second run's creates do not
// collide with the first run's sessions) and closes every session it
// opened when it ends.
func TestGraphRunRerunsAgainstLiveServer(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	m := stream.NewManager(stream.Config{Server: srv})
	defer m.Close()
	ts := httptest.NewServer(stream.Mux(srv, m))
	defer ts.Close()

	o := graphOptions{
		tenants: 4, n: 8, tau: 2, batch: 4, workers: 2,
		requests: 24, seed: 1, duration: time.Minute,
		energy: true, check: true,
	}
	for run := 1; run <= 2; run++ {
		if code := graphRun(ts.URL, o); code != 0 {
			t.Fatalf("run %d exited %d", run, code)
		}
	}
	if n := m.Sessions(); n != 0 {
		t.Fatalf("the runs left %d sessions open", n)
	}
}
