package server

import (
	"fmt"
	"net/http"

	"cloudeval/internal/core"
)

// Multi-tenancy. Every request belongs to a tenant, named by the
// X-Tenant header (or, for header-less clients, the ?tenant= query
// parameter); requests naming neither belong to core.TenantDefault,
// which keeps the single-tenant wire contract — default-tenant
// campaign IDs and checkpoint directories are byte- and
// layout-identical to the pre-tenancy daemon.
//
// Campaigns are kept under (tenant, campaign ID) keys. Experiment
// outputs are not per tenant: the benchmark alone determines each, so
// core.Benchmark.Experiment renders it once for every tenant. Only a
// campaign keeps per-tenant state in memory, so requests under made-up
// tenant names leave nothing behind but a rate-limit bucket, which
// goes once it has refilled.
// The engine, store and dispatcher tiers below stay shared
// deliberately — they are content-addressed, so one tenant's warm
// cache can never show another tenant anything but the deterministic
// output of the same computation.

// tenantName extracts and validates the requesting tenant.
func tenantName(r *http.Request) (string, error) {
	t := r.Header.Get("X-Tenant")
	if t == "" && r.URL.RawQuery != "" {
		t = r.URL.Query().Get("tenant")
	}
	if t == "" {
		return core.TenantDefault, nil
	}
	if !core.ValidTenant(t) {
		return "", fmt.Errorf("invalid tenant %q: want 1-64 letters, digits, '-' or '_'", t)
	}
	return t, nil
}

// tenantFor resolves the request's tenant name, writing the error
// envelope itself on an invalid name.
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request) (string, bool) {
	name, err := tenantName(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidTenant, err.Error())
		return "", false
	}
	return name, true
}

// campaignRoot is the tenant's checkpoint root under the server's data
// directory.
func (s *Server) campaignRoot(tenant string) string {
	return core.CampaignRoot(s.dataDir, tenant)
}
