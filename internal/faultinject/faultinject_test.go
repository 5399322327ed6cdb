package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeterministicDecisions pins the seeding contract: two injectors
// with one seed make identical decision sequences; different seeds
// diverge.
func TestDeterministicDecisions(t *testing.T) {
	cfg := Config{Seed: 42, DropProb: 0.2, ResetProb: 0.2, DupProb: 0.2, DelayProb: 0.3, MaxDelay: time.Millisecond}
	a, b := New(cfg), New(cfg)
	for i := range 500 {
		da, db := a.decide(), b.decide()
		if da != db {
			t.Fatalf("decision %d diverged under equal seeds: %+v vs %+v", i, da, db)
		}
	}
	cfg.Seed = 43
	c := New(cfg)
	same := 0
	d := New(Config{Seed: 42, DropProb: 0.2, ResetProb: 0.2, DupProb: 0.2, DelayProb: 0.3, MaxDelay: time.Millisecond})
	for range 500 {
		if c.decide() == d.decide() {
			same++
		}
	}
	if same == 500 {
		t.Error("different seeds produced identical decision sequences")
	}
	st := a.Stats()
	if st.Requests != 500 || st.Drops == 0 || st.Resets == 0 || st.Dups == 0 || st.Delays == 0 {
		t.Errorf("500 decisions at these probabilities should hit every fault class: %+v", st)
	}
}

// TestTransportFaults drives a counting server through a faulty
// transport and checks each fault's obligation: drops never reach the
// server, resets reach it exactly once, dups reach it exactly twice.
func TestTransportFaults(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		hits.Add(1)
		w.Write(body)
	}))
	defer hs.Close()

	check := func(name string, cfg Config, wantHits int64, wantErr error) {
		t.Helper()
		hits.Store(0)
		in := New(cfg)
		client := &http.Client{Transport: in.Transport(nil)}
		req, _ := http.NewRequest(http.MethodPost, hs.URL, bytes.NewReader([]byte("payload")))
		resp, err := client.Do(req)
		if wantErr != nil {
			if err == nil || !errors.Is(err, wantErr) {
				t.Fatalf("%s: err = %v, want %v", name, err, wantErr)
			}
		} else {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			echo, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(echo) != "payload" {
				t.Errorf("%s: response body %q, want the echoed payload", name, echo)
			}
		}
		if hits.Load() != wantHits {
			t.Errorf("%s: server handled %d request(s), want %d", name, hits.Load(), wantHits)
		}
	}

	check("drop", Config{DropProb: 1}, 0, ErrDropped)
	check("reset", Config{ResetProb: 1}, 1, ErrReset)
	check("dup", Config{DupProb: 1}, 2, nil)
	check("clean", Config{}, 1, nil)
}

// TestTransportDelay bounds injected delays by MaxDelay and checks that
// a delayed request still completes.
func TestTransportDelay(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer hs.Close()
	in := New(Config{Seed: 7, DelayProb: 1, MaxDelay: 10 * time.Millisecond})
	client := &http.Client{Transport: in.Transport(nil)}
	start := time.Now()
	for range 5 {
		resp, err := client.Get(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("5 delayed requests took %v; delays are not bounded by MaxDelay", elapsed)
	}
	if st := in.Stats(); st.Delays != 5 {
		t.Errorf("delays injected: %d, want 5", st.Delays)
	}
}

// TestZeroConfigTransparent checks that the zero Config injects
// nothing over many requests.
func TestZeroConfigTransparent(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(strconv.FormatInt(hits.Load(), 10)))
	}))
	defer hs.Close()
	in := New(Config{})
	client := &http.Client{Transport: in.Transport(nil)}
	for range 50 {
		resp, err := client.Get(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if hits.Load() != 50 {
		t.Errorf("server saw %d requests, want 50", hits.Load())
	}
	st := in.Stats()
	if st.Drops+st.Resets+st.Dups+st.Delays != 0 {
		t.Errorf("zero config injected faults: %+v", st)
	}
}
