package farm

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zynqfusion/internal/obs"
	"zynqfusion/internal/slo"
)

// sloTestFarm runs a two-stream farm to completion — one declaring an
// always-burning SLO, one SLO-free — behind an HTTP server. The burning
// stream's queue holds its whole frame budget, so drop-oldest never
// leaves its latency SLI below slo.DefaultMinEvents however fast capture
// outruns fusion.
func sloTestFarm(t *testing.T) (*Farm, *httptest.Server) {
	t.Helper()
	fm := New(Config{})
	srv := httptest.NewServer(NewServer(fm))
	t.Cleanup(srv.Close)
	t.Cleanup(fm.Close)
	if _, err := fm.Submit(StreamConfig{
		ID: "burn", Seed: 1, W: 32, H: 24, Frames: 40, QueueCap: 40,
		SLO: &slo.SLO{LatencyBoundMS: 0.001, WindowScale: 1e-3},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.Submit(StreamConfig{ID: "plain", Seed: 2, W: 32, H: 24, Frames: 5}); err != nil {
		t.Fatal(err)
	}
	fm.Wait()
	return fm, srv
}

func TestEventsSincePagination(t *testing.T) {
	fm, srv := sloTestFarm(t)

	// Walk the whole retained log through the cursor in small pages: the
	// union must be every event exactly once, in order.
	all := fm.Events("", 0)
	if len(all) == 0 {
		t.Fatal("no events to paginate")
	}
	type page struct {
		Events  []obs.Event `json:"events"`
		NextSeq uint64      `json:"next_seq"`
	}
	var walked []obs.Event
	cursor := uint64(0)
	for i := 0; i < 1000; i++ {
		var p page
		if code := getJSON(t, fmt.Sprintf("%s/events?since=%d&n=3", srv.URL, cursor), &p); code != http.StatusOK {
			t.Fatalf("/events?since=%d status %d", cursor, code)
		}
		if len(p.Events) == 0 {
			if p.NextSeq != cursor {
				t.Fatalf("empty page moved the cursor: %d -> %d", cursor, p.NextSeq)
			}
			break
		}
		if len(p.Events) > 3 {
			t.Fatalf("page holds %d events, n=3", len(p.Events))
		}
		walked = append(walked, p.Events...)
		cursor = p.NextSeq
	}
	if len(walked) != len(all) {
		t.Fatalf("cursor walk found %d events, log holds %d", len(walked), len(all))
	}
	for i := range walked {
		if walked[i].Seq != all[i].Seq {
			t.Fatalf("walk order diverges at %d: seq %d vs %d", i, walked[i].Seq, all[i].Seq)
		}
		if i > 0 && walked[i].Seq <= walked[i-1].Seq {
			t.Fatalf("cursor double-read seq %d", walked[i].Seq)
		}
	}

	// A bad cursor is a 400; the legacy bare-array shape is untouched.
	if code := getJSON(t, srv.URL+"/events?since=nope", nil); code != http.StatusBadRequest {
		t.Fatalf("bad since: status %d", code)
	}
	var bare []obs.Event
	if code := getJSON(t, srv.URL+"/events?n=5", &bare); code != http.StatusOK || len(bare) == 0 {
		t.Fatalf("legacy /events shape broke: status %d, %d events", code, len(bare))
	}
}

func TestSLOAndAlertsEndpoints(t *testing.T) {
	_, srv := sloTestFarm(t)

	var sloResp struct {
		Farm    *SLOTelemetry `json:"farm"`
		Streams []struct {
			ID          string                `json:"id"`
			SLO         *slo.Status           `json:"slo"`
			Degradation *DegradationTelemetry `json:"degradation"`
		} `json:"streams"`
	}
	if code := getJSON(t, srv.URL+"/slo", &sloResp); code != http.StatusOK {
		t.Fatalf("/slo status %d", code)
	}
	if sloResp.Farm == nil || sloResp.Farm.StreamsWithSLO != 1 {
		t.Fatalf("/slo farm rollup: %+v", sloResp.Farm)
	}
	if len(sloResp.Streams) != 1 || sloResp.Streams[0].ID != "burn" {
		t.Fatalf("/slo must list only SLO-carrying streams: %+v", sloResp.Streams)
	}
	st := sloResp.Streams[0].SLO
	if st == nil || !st.PageActive || len(st.SLIs) != 1 || st.SLIs[0].Name != slo.SLILatency {
		t.Fatalf("/slo stream status: %+v", st)
	}

	var alerts struct {
		Active []struct {
			Stream   string `json:"stream"`
			SLI      string `json:"sli"`
			Severity string `json:"severity"`
		} `json:"active"`
		Recent []obs.Event `json:"recent"`
	}
	if code := getJSON(t, srv.URL+"/alerts", &alerts); code != http.StatusOK {
		t.Fatalf("/alerts status %d", code)
	}
	var page bool
	for _, a := range alerts.Active {
		if a.Stream == "burn" && a.SLI == "latency" && a.Severity == "page" {
			page = true
		}
	}
	if !page {
		t.Fatalf("/alerts missing the active page: %+v", alerts.Active)
	}
	if len(alerts.Recent) == 0 {
		t.Fatal("/alerts recent history empty despite a fire")
	}
	for _, ev := range alerts.Recent {
		if ev.Kind != obs.EventAlertFire && ev.Kind != obs.EventAlertClear {
			t.Fatalf("/alerts recent leaked a %q event", ev.Kind)
		}
	}
}

func TestPrometheusSLOFamilies(t *testing.T) {
	_, srv := sloTestFarm(t)
	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	text := string(body)
	// The encoder self-lints (duplicate series or malformed names 500 the
	// scrape), so reaching here means the new families are well-formed;
	// still pin their presence and the shapes a dashboard keys on.
	for _, want := range []string{
		"# TYPE farm_build_info gauge",
		`farm_build_info{version="`,
		"# TYPE farm_scrape_duration_seconds gauge",
		"# TYPE farm_slo_health gauge",
		"# TYPE farm_slo_burning gauge",
		"farm_slo_burning 1",
		`farm_slo_stream_health{stream="burn"}`,
		`farm_slo_stream_burn_rate{stream="burn",sli="latency",window="5m"}`,
		`farm_alert_active{stream="burn",sli="latency",severity="page"} 1`,
		`farm_slo_stream_alerts_fired_total{stream="burn",sli="latency",severity="page"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// SLO-free streams must not leak into the per-stream SLO families.
	if strings.Contains(text, `farm_slo_stream_health{stream="plain"}`) {
		t.Error("SLO-free stream exported an SLO series")
	}
	types, samples := parsePromText(t, text)
	lintPromHistograms(t, types, samples)
}
