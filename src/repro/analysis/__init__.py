"""Off-line analysis: crash classification, latency, tables, figures,
propagation, and JSON export."""
