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
// Tenant state is the serving layer only: experiment result caches,
// in-flight coalescing and campaign bookkeeping are per-tenant, so
// tenants share nothing above the engine. The engine, store and
// dispatcher tiers below stay shared deliberately — they are
// content-addressed, so one tenant's warm cache can never show another
// tenant anything but the deterministic output of the same
// computation.

// tenantState is one tenant's slice of the serving layer.
type tenantState struct {
	name      string
	flights   map[string]*flight // experiment ID → in-flight generation
	results   map[string]string  // experiment ID → completed output
	campaigns map[string]*campaign
}

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

// tenantLocked returns (creating on first use) the named tenant's
// state. Callers must hold s.mu.
func (s *Server) tenantLocked(name string) *tenantState {
	tn, ok := s.tenants[name]
	if !ok {
		tn = &tenantState{
			name:      name,
			flights:   make(map[string]*flight),
			results:   make(map[string]string),
			campaigns: make(map[string]*campaign),
		}
		s.tenants[name] = tn
	}
	return tn
}

// tenantFor resolves the request's tenant state, writing the error
// envelope itself on an invalid name.
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request) (*tenantState, bool) {
	name, err := tenantName(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidTenant, err.Error())
		return nil, false
	}
	s.mu.Lock()
	tn := s.tenantLocked(name)
	s.mu.Unlock()
	return tn, true
}

// campaignRoot is the tenant's checkpoint root under the server's data
// directory.
func (s *Server) campaignRoot(tenant string) string {
	return core.CampaignRoot(s.dataDir, tenant)
}
