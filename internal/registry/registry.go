// Package registry models the Docker image distribution path of the
// evaluation platform (Figure 4): an image catalog with realistic
// sizes, a shared internet uplink with fixed bandwidth, per-worker
// local Docker caches, and the optional shared pull-through registry
// cache on the master node.
//
// Time here is virtual: pulls account seconds against a discrete-event
// simulation, which is how Figure 5's evaluation-time curves are
// reproduced without moving real bytes.
package registry

import (
	"sort"
	"strings"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/scenario"
	"cloudeval/internal/yamlx"
)

// Catalog maps image references to sizes in MB. Unknown images fall
// back to DefaultImageMB.
var Catalog = map[string]float64{
	"nginx:latest":              67,
	"nginx:1.25":                67,
	"httpd:2.4":                 59,
	"redis:7":                   45,
	"node:20-alpine":            55,
	"python:3.11-slim":          48,
	"golang:1.21-alpine":        98,
	"memcached:1.6":             30,
	"busybox:1.36":              2,
	"perl:5.34.0":               142,
	"mysql:latest":              188,
	"postgres:latest":           160,
	"mariadb:latest":            120,
	"mongo:latest":              208,
	"envoyproxy/envoy:v1.27":    62,
	"istio/pilot:1.19":          85,
	"registry.k8s.io/pause:3.9": 1,
	"docker/compose-bin:v2.24":  25,
	"alpine/helm:3.14":          78,
}

// DefaultImageMB is the size assumed for uncataloged images.
const DefaultImageMB = 60

// NormalizeRef canonicalizes an image reference the way Docker does:
// a reference without a tag (or digest) means ":latest". Manifests
// routinely write bare "nginx"; without normalization those miss the
// catalog and silently fall back to DefaultImageMB.
func NormalizeRef(image string) string {
	// The tag separator is a colon after the last slash; a colon before
	// it is a registry port (localhost:5000/app), and "@" marks a
	// digest reference, which is already fully qualified.
	rest := image
	if i := strings.LastIndexByte(image, '/'); i >= 0 {
		rest = image[i+1:]
	}
	if strings.ContainsAny(rest, ":@") {
		return image
	}
	return image + ":latest"
}

// SizeMB returns an image's size, normalizing untagged references so
// "nginx" hits the "nginx:latest" catalog entry.
func SizeMB(image string) float64 {
	if s, ok := Catalog[NormalizeRef(image)]; ok {
		return s
	}
	return DefaultImageMB
}

// ImagesFor extracts the container images a problem's environment must
// pull: every container image in the reference manifest, plus the tool
// images the problem's workload family implies (Envoy problems run the
// Envoy image; every Kubernetes test node pulls the pause image) —
// declared by the family's scenario backend.
func ImagesFor(p dataset.Problem) []string {
	set := map[string]bool{}
	docs, err := yamlx.ParseAllCached(p.ReferenceYAML)
	if err == nil {
		for _, d := range docs {
			collectImages(d, set)
		}
	}
	for _, img := range scenario.For(p.Category).ImpliedImages {
		set[img] = true
	}
	out := make([]string, 0, len(set))
	for img := range set {
		out = append(out, img)
	}
	sort.Strings(out)
	return out
}

func collectImages(n *yamlx.Node, set map[string]bool) {
	if n == nil {
		return
	}
	switch n.Kind {
	case yamlx.MapKind:
		for _, e := range n.Entries {
			if e.Key == "image" && e.Value.IsScalar() {
				img := e.Value.ScalarString()
				if img != "" && !strings.ContainsAny(img, " \t") {
					set[img] = true
				}
				continue
			}
			collectImages(e.Value, set)
		}
	case yamlx.SeqKind:
		for _, it := range n.Items {
			collectImages(it, set)
		}
	}
}

// Link is a shared, serialized network link: transfers queue behind one
// another, modeling bandwidth contention among workers.
type Link struct {
	// BandwidthMbps is the link capacity.
	BandwidthMbps float64
	busyUntil     time.Duration
	bytesMB       float64
}

// NewLink builds a link with the given capacity.
func NewLink(mbps float64) *Link { return &Link{BandwidthMbps: mbps} }

// Transfer schedules sizeMB of traffic requested at virtual time start
// and returns when the transfer completes. Requests serialize on the
// link, so a busy link delays later transfers.
func (l *Link) Transfer(start time.Duration, sizeMB float64) (end time.Duration) {
	if start > l.busyUntil {
		l.busyUntil = start
	}
	seconds := sizeMB * 8 / l.BandwidthMbps
	l.busyUntil += time.Duration(seconds * float64(time.Second))
	l.bytesMB += sizeMB
	return l.busyUntil
}

// TotalMB reports the bytes the link carried.
func (l *Link) TotalMB() float64 { return l.bytesMB }

// Reset clears the link for another run.
func (l *Link) Reset() {
	l.busyUntil = 0
	l.bytesMB = 0
}

// PullThroughCache is the master-side shared registry cache: the first
// request for an image pays the WAN; later requests are served over the
// (much faster) cluster LAN.
type PullThroughCache struct {
	WAN    *Link
	LAN    *Link
	stored map[string]bool

	Hits   int
	Misses int
}

// NewPullThroughCache wires a cache between a WAN and a LAN link.
func NewPullThroughCache(wan, lan *Link) *PullThroughCache {
	return &PullThroughCache{WAN: wan, LAN: lan, stored: make(map[string]bool)}
}

// Pull fetches an image at virtual time start and returns the completion
// time.
func (c *PullThroughCache) Pull(image string, start time.Duration) time.Duration {
	return c.PullBytes(image, SizeMB(image), start)
}

// PullBytes fetches sizeMB worth of an image's layers (callers discount
// for base layers the worker already holds).
func (c *PullThroughCache) PullBytes(image string, sizeMB float64, start time.Duration) time.Duration {
	if c.stored[image] {
		c.Hits++
		return c.LAN.Transfer(start, sizeMB)
	}
	c.Misses++
	c.stored[image] = true
	end := c.WAN.Transfer(start, sizeMB)
	return c.LAN.Transfer(end, sizeMB)
}

// DirectPuller models the no-cache configuration: every worker request
// goes straight to the internet.
type DirectPuller struct {
	WAN *Link
}

// Pull fetches an image over the WAN.
func (d *DirectPuller) Pull(image string, start time.Duration) time.Duration {
	return d.PullBytes(image, SizeMB(image), start)
}

// PullBytes fetches sizeMB worth of an image's layers over the WAN.
func (d *DirectPuller) PullBytes(image string, sizeMB float64, start time.Duration) time.Duration {
	return d.WAN.Transfer(start, sizeMB)
}

// Puller abstracts the two distribution paths.
type Puller interface {
	Pull(image string, start time.Duration) time.Duration
	PullBytes(image string, sizeMB float64, start time.Duration) time.Duration
}
