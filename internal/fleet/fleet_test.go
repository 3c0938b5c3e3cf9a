package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zynqfusion/internal/farm"
	"zynqfusion/internal/sim"
	"zynqfusion/internal/slo"
)

func tinyStream(id string, seed, frames int64) farm.StreamConfig {
	return farm.StreamConfig{ID: id, Seed: seed, W: 32, H: 24, Engine: "neon", Frames: frames}
}

// TestFleetPlacementDeterministicAndBounded submits 256 streams to two
// independent 8-board fleets and pins the acceptance properties:
// identical placements on both (placement is a pure function of the
// submission sequence) and max board load within the bounded-load cap,
// i.e. imbalance <= 1.25x the ideal 32 streams per board.
func TestFleetPlacementDeterministicAndBounded(t *testing.T) {
	place := func() (map[string]string, *Fleet) {
		c, err := New(Config{Boards: 8})
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string, 256)
		for i := 0; i < 256; i++ {
			id := fmt.Sprintf("s%d", i)
			_, bid, err := c.Submit(tinyStream(id, int64(i), 1))
			if err != nil {
				t.Fatalf("submit %s: %v", id, err)
			}
			got[id] = bid
		}
		return got, c
	}
	a, ca := place()
	b, cb := place()
	defer ca.Close()
	defer cb.Close()
	for id, bid := range a {
		if b[id] != bid {
			t.Fatalf("stream %s placed on %s and %s across identical runs", id, bid, b[id])
		}
	}

	load := map[string]int{}
	for _, bid := range a {
		load[bid]++
	}
	bound := BoundedCap(256, 8, DefaultLoadFactor) // 40 = 1.25 * ideal 32
	for bid, n := range load {
		if n > bound {
			t.Errorf("board %s holds %d streams, bounded-load cap %d", bid, n, bound)
		}
	}

	ca.Wait()
	cb.Wait()
	r := ca.Rollup()
	if r.Totals.Imbalance > DefaultLoadFactor+1e-9 {
		t.Errorf("rollup imbalance %.3f exceeds load factor %.2f", r.Totals.Imbalance, DefaultLoadFactor)
	}
	if r.Totals.Fused != 256 {
		t.Errorf("fleet fused %d frames, want 256", r.Totals.Fused)
	}
	ca.Close()
	cb.Close()
	if err := ca.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	if err := cb.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetAdmissionRefusal drives every board's SLO budget into a page
// burn (impossible latency bound, degradation off) and checks the
// fleet-wide gate: a board that refuses is skipped — only when *all*
// live boards refuse does Submit fail, wrapping farm.ErrSLOBurning, and
// the refusal is counted on the rollup.
func TestFleetAdmissionRefusal(t *testing.T) {
	c, err := New(Config{
		Boards: 2,
		Board: farm.Config{SLO: &slo.Rules{
			WindowScale:   1e-3,
			NoDegradation: true,
			Default:       &slo.SLO{LatencyBoundMS: 0.0001},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Four streams guarantee each of the two boards hosts at least one
	// (bounded-load caps are 1,2,2,3 as K grows), so both budgets burn.
	// Each burn stream's queue holds its whole frame budget, so no frame
	// is dropped and every board fuses enough frames to burn.
	boards := map[string]bool{}
	for i := 0; i < 4; i++ {
		burn := tinyStream(fmt.Sprintf("burn%d", i), int64(i+1), 40)
		burn.QueueCap = 40
		_, bid, err := c.Submit(burn)
		if err != nil {
			t.Fatal(err)
		}
		boards[bid] = true
	}
	if len(boards) != 2 {
		t.Fatalf("burning streams landed on %d boards, want both", len(boards))
	}
	c.Wait()

	_, _, err = c.Submit(tinyStream("late", 99, 1))
	if !errors.Is(err, farm.ErrSLOBurning) {
		t.Fatalf("Submit with every board burning: %v, want farm.ErrSLOBurning", err)
	}
	if got := c.Rollup().Totals.AdmissionRefused; got != 1 {
		t.Fatalf("AdmissionRefused = %d, want 1", got)
	}
}

// TestFleetKillRestore exercises the failure control plane: an
// evacuated kill migrates every resident stream to the survivors, an
// unevacuated kill loses them (placements dead, snapshots gone), and a
// restore brings the board back at a fresh epoch with zero streams —
// with zero bufpool leases outstanding across live and retired farms.
func TestFleetKillRestore(t *testing.T) {
	c, err := New(Config{Boards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 9; i++ {
		cfg := tinyStream(fmt.Sprintf("s%d", i), int64(i+1), 0) // unbounded
		cfg.IntervalMS = 1
		if _, _, err := c.Submit(cfg); err != nil {
			t.Fatal(err)
		}
	}
	load := c.loadSnapshot()
	var victim string
	for bid, n := range load {
		if n > 0 {
			victim = bid
			break
		}
	}
	evacuated := c.streamsOn(victim)

	lost, err := c.Kill(victim, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 0 {
		t.Fatalf("evacuated kill lost %v", lost)
	}
	r := c.Rollup()
	if r.Totals.BoardsUp != 2 || r.Totals.Streams != 9 {
		t.Fatalf("after evacuated kill: up=%d streams=%d, want 2/9", r.Totals.BoardsUp, r.Totals.Streams)
	}
	for _, id := range evacuated {
		_, bid, ok := c.Get(id)
		if !ok || bid == victim {
			t.Fatalf("evacuee %s on %q (ok=%v) after kill of %s", id, bid, ok, victim)
		}
	}
	if _, err := c.Kill(victim, true); err == nil {
		t.Fatal("second kill of a down board succeeded")
	}

	// Unevacuated kill of a second board: residents go down with it.
	var second string
	for _, bid := range []string{"board0", "board1", "board2"} {
		if bid != victim && c.loadSnapshot()[bid] > 0 {
			second = bid
			break
		}
	}
	lost, err = c.Kill(second, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) == 0 {
		t.Fatalf("unevacuated kill of loaded board %s lost nothing", second)
	}
	for _, id := range lost {
		if _, _, ok := c.Get(id); ok {
			t.Fatalf("lost stream %s still reachable", id)
		}
		if _, err := c.Migrate(id, "", "test"); !errors.Is(err, ErrStreamLost) {
			t.Fatalf("migrating lost stream: %v, want ErrStreamLost", err)
		}
	}
	r = c.Rollup()
	if r.Totals.Streams != 9-len(lost) {
		t.Fatalf("live streams %d, want %d", r.Totals.Streams, 9-len(lost))
	}

	if err := c.Restore(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(victim); err == nil {
		t.Fatal("second restore of an up board succeeded")
	}
	r = c.Rollup()
	for _, b := range r.Boards {
		if b.ID == victim && (!b.Up || b.Epoch != 1 || b.Streams != 0) {
			t.Fatalf("restored board: %+v", b)
		}
	}

	// Drain everything and assert the fleet-wide lease ledger is clean —
	// including the two retired farms.
	for _, p := range c.Rollup().Placements {
		if !p.Dead {
			if err := c.Stop(p.Stream); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Close()
	if err := c.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetPowerArbitration pins the budget split invariants: the live
// boards' arbitrated caps sum to the fleet budget, every live board
// keeps at least budget/(2·live) (the even half of the split), and the
// split follows membership changes and budget rebinds.
func TestFleetPowerArbitration(t *testing.T) {
	const budget = sim.Watts(2.0)
	c, err := New(Config{Boards: 4, PowerBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	check := func(up int) {
		t.Helper()
		r := c.Rollup()
		var sum sim.Watts
		floor := budget / sim.Watts(2*up)
		for _, b := range r.Boards {
			if !b.Up {
				continue
			}
			sum += b.PowerBudget
			if b.PowerBudget < floor-1e-9 {
				t.Fatalf("board %s budget %v below floor %v", b.ID, b.PowerBudget, floor)
			}
		}
		if sum < budget-1e-9 || sum > budget+1e-9 {
			t.Fatalf("live budgets sum to %v, want %v", sum, budget)
		}
	}
	check(4)

	if _, err := c.Kill("board2", true); err != nil {
		t.Fatal(err)
	}
	check(3)

	if err := c.Restore("board2"); err != nil {
		t.Fatal(err)
	}
	check(4)

	// With some draw on one board the demand half skews toward it but the
	// floor still holds.
	cfg := tinyStream("hot", 5, 0)
	cfg.IntervalMS = 1
	cfg.Engine = "fpga"
	if _, _, err := c.Submit(cfg); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	c.Arbitrate()
	check(4)

	// Dropping the fleet budget to zero restores the template's (here
	// unlimited) per-board caps.
	c.SetPowerBudget(0)
	for _, b := range c.Rollup().Boards {
		if b.PowerBudget != 0 {
			t.Fatalf("board %s budget %v after unsetting the fleet budget", b.ID, b.PowerBudget)
		}
	}
	if err := c.Stop("hot"); err != nil {
		t.Fatal(err)
	}
}

// loadSnapshot and streamsOn expose locked helpers to tests.
func (c *Fleet) loadSnapshot() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadLocked()
}

func (c *Fleet) streamsOn(boardID string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streamsOnLocked(boardID)
}

// TestFleetServer walks the fusiond --fleet HTTP surface: submit,
// rollup JSON and Prometheus rendering, live migration, snapshot
// serving across the handoff, stop, kill, restore, and the error
// statuses (404 unknown, 409 conflict, 400 bad body).
func TestFleetServer(t *testing.T) {
	c, err := New(Config{Boards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()

	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}

	cfg := tinyStream("web1", 7, 0)
	cfg.IntervalMS = 1
	body, _ := json.Marshal(cfg)
	resp := post("/streams", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /streams: %d", resp.StatusCode)
	}
	var created struct {
		Board  string               `json:"board"`
		Stream farm.StreamTelemetry `json:"stream"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.Board == "" || created.Stream.ID != "web1" {
		t.Fatalf("created: %+v", created)
	}
	if resp := post("/streams", []byte("{nope")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}
	if resp := post("/streams", body); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate submit: %d, want 409 like the single-farm surface", resp.StatusCode)
	}

	var tele Telemetry
	resp = get("/fleet")
	if err := json.NewDecoder(resp.Body).Decode(&tele); err != nil {
		t.Fatal(err)
	}
	if tele.Totals.Boards != 2 || tele.Totals.Streams != 1 {
		t.Fatalf("/fleet totals: %+v", tele.Totals)
	}

	resp = get("/metrics?format=prometheus")
	var promBuf bytes.Buffer
	if _, err := promBuf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	prom := promBuf.String()
	for _, want := range []string{"fleet_boards 2", "fleet_streams 1", `fleet_board_up{board="board0"} 1`} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}

	// Wait for a first fused frame, then check the snapshot survives a
	// live migration byte-for-byte (same newest-or-older frame contract).
	s, _, _ := c.Get("web1")
	for i := 0; s.Telemetry().Fused == 0; i++ {
		if i > 500 {
			t.Fatal("no frame fused")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp = get("/streams/web1/snapshot.pgm")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	var pgm bytes.Buffer
	pgm.ReadFrom(resp.Body)
	if !bytes.HasPrefix(pgm.Bytes(), []byte("P5\n")) {
		t.Fatalf("snapshot is not binary PGM: %q", pgm.Bytes()[:8])
	}

	resp = post("/streams/web1/migrate?reason=hotspot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate: %d", resp.StatusCode)
	}
	var m Migration
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.From == m.To || m.Reason != "hotspot" || m.ResumeSeq != m.SegmentFused {
		t.Fatalf("migration record: %+v", m)
	}
	if resp := get("/streams/web1/snapshot.pgm"); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot across handoff: %d", resp.StatusCode)
	}
	if resp := post("/streams/web1/migrate?to=nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("migrate to unknown board: %d", resp.StatusCode)
	}

	resp = get("/boards/" + m.To)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /boards/%s: %d", m.To, resp.StatusCode)
	}
	if resp := get("/boards/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown board: %d", resp.StatusCode)
	}

	if resp := http.DefaultClient; resp == nil {
		t.Fatal("unreachable")
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/streams/web1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /streams/web1: %d", dresp.StatusCode)
	}

	if resp := post("/boards/board0/kill", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("kill: %d", resp.StatusCode)
	}
	if resp := post("/boards/board0/kill", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double kill: %d", resp.StatusCode)
	}
	if resp := post("/boards/board0/restore", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: %d", resp.StatusCode)
	}
	if resp := get("/streams/ghost"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream: %d", resp.StatusCode)
	}

	c.Close()
	if resp := get("/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after close: %d", resp.StatusCode)
	}
	if err := c.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}
