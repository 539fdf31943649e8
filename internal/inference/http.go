package inference

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// HTTP generates against an OpenAI-compatible chat-completions
// endpoint: POST {base}/chat/completions with the rendered prompt as a
// single user message. Token usage comes from the response's usage
// block when present, estimated otherwise; latency is the measured
// round trip. Pair it with Record to capture a deterministic trace of
// a real-API campaign.
type HTTP struct {
	base   string
	apiKey string
	client *http.Client
}

// HTTPOption configures an HTTP provider.
type HTTPOption func(*HTTP)

// WithAPIKey sets the bearer token sent as Authorization.
func WithAPIKey(key string) HTTPOption { return func(h *HTTP) { h.apiKey = key } }

// NewHTTP builds a provider for the OpenAI-compatible API rooted at
// baseURL (e.g. "https://api.openai.com/v1" or a local vLLM server's
// "http://127.0.0.1:8000/v1").
func NewHTTP(baseURL string, opts ...HTTPOption) *HTTP {
	h := &HTTP{
		base:   strings.TrimRight(baseURL, "/"),
		client: &http.Client{Timeout: 5 * time.Minute},
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Name implements Provider.
func (h *HTTP) Name() string { return "http" }

// chatRequest is the OpenAI-compatible request body.
type chatRequest struct {
	Model       string        `json:"model"`
	Messages    []chatMessage `json:"messages"`
	Temperature float64       `json:"temperature"`
}

type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

// chatResponse is the subset of the response body the provider reads.
type chatResponse struct {
	Choices []struct {
		Message chatMessage `json:"message"`
	} `json:"choices"`
	Usage struct {
		PromptTokens     int `json:"prompt_tokens"`
		CompletionTokens int `json:"completion_tokens"`
	} `json:"usage"`
	Error *struct {
		Message string `json:"message"`
	} `json:"error"`
}

// Generate implements Provider.
func (h *HTTP) Generate(ctx context.Context, req Request) (Response, error) {
	promptText := req.Prompt()
	body, err := json.Marshal(chatRequest{
		Model:       req.Model,
		Messages:    []chatMessage{{Role: "user", Content: promptText}},
		Temperature: req.Opts.Temperature,
	})
	if err != nil {
		return Response{}, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/chat/completions", bytes.NewReader(body))
	if err != nil {
		return Response{}, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if h.apiKey != "" {
		httpReq.Header.Set("Authorization", "Bearer "+h.apiKey)
	}
	start := time.Now()
	httpResp, err := h.client.Do(httpReq)
	if err != nil {
		return Response{}, fmt.Errorf("inference: http: %w", err)
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, 16<<20))
	if err != nil {
		return Response{}, fmt.Errorf("inference: http: read body: %w", err)
	}
	latency := time.Since(start)
	var parsed chatResponse
	if err := json.Unmarshal(data, &parsed); err != nil {
		if httpResp.StatusCode != http.StatusOK {
			return Response{}, fmt.Errorf("inference: http: status %d: %s", httpResp.StatusCode, snippet(data))
		}
		return Response{}, fmt.Errorf("inference: http: decode response: %w", err)
	}
	if httpResp.StatusCode != http.StatusOK || parsed.Error != nil {
		msg := snippet(data)
		if parsed.Error != nil {
			msg = parsed.Error.Message
		}
		return Response{}, fmt.Errorf("inference: http: status %d: %s", httpResp.StatusCode, msg)
	}
	if len(parsed.Choices) == 0 {
		return Response{}, fmt.Errorf("inference: http: response has no choices")
	}
	text := parsed.Choices[0].Message.Content
	u := Usage{PromptTokens: parsed.Usage.PromptTokens, CompletionTokens: parsed.Usage.CompletionTokens}
	if u.Total() == 0 {
		u = EstimateUsage(promptText, text)
	}
	return Response{Text: text, Usage: u, Latency: latency}, nil
}

// Close implements Provider.
func (h *HTTP) Close() error {
	h.client.CloseIdleConnections()
	return nil
}

func snippet(data []byte) string {
	s := strings.TrimSpace(string(data))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
