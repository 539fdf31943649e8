package registry

import (
	"testing"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/scenario"
)

// TestImagesForExtractsContainers checks every problem's image set
// includes the tool images its family's scenario backend implies —
// the registry-driven generalization of the old per-category switch.
func TestImagesForExtractsContainers(t *testing.T) {
	for _, p := range dataset.Generate() {
		imgs := ImagesFor(p)
		if len(imgs) == 0 {
			t.Errorf("%s: no images derived", p.ID)
		}
		for _, implied := range scenario.For(p.Category).ImpliedImages {
			if !contains(imgs, implied) {
				t.Errorf("%s: family-implied image %s missing: %v", p.ID, implied, imgs)
			}
		}
	}
}

func TestNormalizeRef(t *testing.T) {
	cases := map[string]string{
		"nginx":                   "nginx:latest",
		"nginx:1.25":              "nginx:1.25",
		"envoyproxy/envoy":        "envoyproxy/envoy:latest",
		"envoyproxy/envoy:v1.27":  "envoyproxy/envoy:v1.27",
		"localhost:5000/app":      "localhost:5000/app:latest",
		"localhost:5000/app:v2":   "localhost:5000/app:v2",
		"repo/app@sha256:deadbee": "repo/app@sha256:deadbee",
	}
	for in, want := range cases {
		if got := NormalizeRef(in); got != want {
			t.Errorf("NormalizeRef(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSizeMBNormalizesUntagged is the satellite fix: a bare "nginx"
// must hit the nginx:latest catalog entry instead of silently falling
// back to DefaultImageMB.
func TestSizeMBNormalizesUntagged(t *testing.T) {
	if got := SizeMB("nginx"); got != Catalog["nginx:latest"] {
		t.Errorf("SizeMB(nginx) = %v, want catalog nginx:latest = %v", got, Catalog["nginx:latest"])
	}
	if got := SizeMB("mysql"); got != Catalog["mysql:latest"] {
		t.Errorf("SizeMB(mysql) = %v, want catalog mysql:latest = %v", got, Catalog["mysql:latest"])
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func TestSizeMBFallback(t *testing.T) {
	if SizeMB("nginx:latest") != 67 {
		t.Error("catalog lookup broken")
	}
	if SizeMB("unknown/image:tag") != DefaultImageMB {
		t.Error("fallback size broken")
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	l := NewLink(100)          // 100 Mbps -> 12.5 MB/s
	end1 := l.Transfer(0, 125) // 10 s
	if end1 != 10*time.Second {
		t.Errorf("first transfer end = %v", end1)
	}
	// A transfer requested at t=0 while the link is busy queues.
	end2 := l.Transfer(0, 125)
	if end2 != 20*time.Second {
		t.Errorf("queued transfer end = %v", end2)
	}
	// A transfer requested later starts then.
	end3 := l.Transfer(30*time.Second, 125)
	if end3 != 40*time.Second {
		t.Errorf("later transfer end = %v", end3)
	}
	if l.TotalMB() != 375 {
		t.Errorf("traffic = %v", l.TotalMB())
	}
}

func TestPullThroughCacheHitsAndMisses(t *testing.T) {
	wan := NewLink(100)
	lan := NewLink(1000)
	c := NewPullThroughCache(wan, lan)
	end1 := c.PullBytes("nginx:latest", SizeMB("nginx:latest"), 0)
	if c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("after first pull: hits=%d misses=%d", c.Hits, c.Misses)
	}
	end2 := c.PullBytes("nginx:latest", SizeMB("nginx:latest"), end1)
	if c.Hits != 1 {
		t.Fatalf("second pull should hit: hits=%d", c.Hits)
	}
	// LAN transfers are an order of magnitude faster.
	if end2-end1 >= end1 {
		t.Errorf("cached pull (%v) should be much faster than cold pull (%v)", end2-end1, end1)
	}
	// The WAN only carried the image once.
	if wan.TotalMB() != SizeMB("nginx:latest") {
		t.Errorf("wan traffic = %v", wan.TotalMB())
	}
}

func TestDirectPullerAlwaysWAN(t *testing.T) {
	wan := NewLink(100)
	d := &DirectPuller{WAN: wan}
	d.PullBytes("redis:7", SizeMB("redis:7"), 0)
	d.PullBytes("redis:7", SizeMB("redis:7"), 0)
	if wan.TotalMB() != 2*SizeMB("redis:7") {
		t.Errorf("direct pulls must both cross the WAN: %v MB", wan.TotalMB())
	}
}
