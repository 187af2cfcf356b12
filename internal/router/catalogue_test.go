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

// docMetricNames returns the metric names doc.go's metrics lists (its
// tab-indented lines) name, a brace list in a name — as in
// graphcache_window_{admitted,evicted,rejected}_total — expanded into one
// name per alternative.
func docMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("../../doc.go")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`graphcache_[a-z_]*(\{[a-z_,]+\}[a-z_]*)*`)
	names := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "//\t") {
			continue
		}
		for _, n := range name.FindAllString(line, -1) {
			for _, x := range expandBraces(n) {
				names[x] = true
			}
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

// TestMetricCatalogue: every metric family a live gcserved and a live
// gcrouter register — after single queries and a batch — is named in doc.go's metrics lists, so the catalogue a reader
// greps for what to scrape is the whole of it.
func TestMetricCatalogue(t *testing.T) {
	ds := testDataset(40, 181)
	queries := testWorkload(ds, 12, 182)
	b := startBackend(t, ds)
	rt := startRouter(t, Options{Backends: []string{b.Addr()}})
	ctx := context.Background()
	for _, addr := range []string{b.Addr(), rt.Addr()} {
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
	for _, addr := range []string{b.Addr(), rt.Addr()} {
		for _, fam := range metricFamilies(t, "http://"+addr+"/metrics") {
			if !documented[fam] {
				t.Errorf("%s registers %s, which doc.go's metrics lists do not name", addr, fam)
			}
		}
	}
}
