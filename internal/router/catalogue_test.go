package router

import (
	"bufio"
	"context"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"graphcache/internal/server"
)

// docMetricNames returns, per tier, the metric names doc.go's metrics
// lists (the tab-indented lines under "gcserved serves" and "gcrouter
// serves") name, a brace list in a name — as in
// graphcache_window_{admitted,evicted,rejected}_total — expanded into one
// name per alternative.
func docMetricNames(t *testing.T) map[string]map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("../../doc.go")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`graphcache_[a-z_]*(\{[a-z_,]+\}[a-z_]*)*`)
	names := map[string]map[string]bool{"gcserved": {}, "gcrouter": {}}
	tier := ""
	for _, line := range strings.Split(string(doc), "\n") {
		switch {
		case line == "//":
		case strings.HasPrefix(line, "//\t"):
			for _, n := range name.FindAllString(line, -1) {
				for _, x := range expandBraces(n) {
					if tier == "" {
						t.Fatalf("doc.go names %s outside a tier's metrics list", x)
					}
					names[tier][x] = true
				}
			}
		case strings.HasPrefix(line, "// gcserved serves"):
			tier = "gcserved"
		case strings.HasPrefix(line, "// gcrouter serves"):
			tier = "gcrouter"
		default:
			tier = ""
		}
	}
	return names
}

// expandBraces expands every {a,b,...} list in s, left to right.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}

// metricFamilies returns the family names of url's exposition: one
// # TYPE line per registered family, whether or not it has a sample yet.
func metricFamilies(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var fams []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams = append(fams, f[2])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(fams) == 0 {
		t.Fatalf("%s exposes no metric family", url)
	}
	return fams
}

// TestMetricCatalogue: the metric families a live gcserved and a live
// gcrouter register — after single queries and a batch — are exactly the
// ones doc.go lists under that tier, so the catalogue says which tier owns
// each family and a reader greps one list for what to scrape.
func TestMetricCatalogue(t *testing.T) {
	ds := testDataset(40, 181)
	queries := testWorkload(ds, 12, 182)
	b := startBackend(t, ds)
	rt := startRouter(t, Options{Backends: []string{b.Addr()}})
	ctx := context.Background()
	tiers := map[string]string{"gcserved": b.Addr(), "gcrouter": rt.Addr()}
	for _, addr := range tiers {
		cl := server.NewClient(addr)
		for i, q := range queries[:4] {
			if _, err := cl.Query(ctx, q); err != nil {
				t.Fatalf("%s: Query %d: %v", addr, i, err)
			}
		}
		if _, err := cl.QueryBatch(ctx, queries[4:8]); err != nil {
			t.Fatalf("%s: QueryBatch: %v", addr, err)
		}
	}

	documented := docMetricNames(t)
	for tier, addr := range tiers {
		registered := map[string]bool{}
		for _, fam := range metricFamilies(t, "http://"+addr+"/metrics") {
			registered[fam] = true
			if !documented[tier][fam] {
				t.Errorf("%s registers %s, which doc.go's %s list does not name", tier, fam, tier)
			}
		}
		for fam := range documented[tier] {
			if !registered[fam] {
				t.Errorf("doc.go lists %s under %s, which does not register it", fam, tier)
			}
		}
	}
}
