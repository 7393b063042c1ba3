//! The CM1-style variable set and Damaris configuration generation.
//!
//! CM1 characterizes each grid point by "a set of variables such as local
//! temperature or wind speed" (§IV-A). The proxy carries the classic
//! subset; output volume is tuned by choosing how many are enabled (the
//! paper's BluePrint experiment varies the output size by enabling or
//! disabling variables).

/// Canonical variable names in output order. `theta` (potential
/// temperature) and `qv` (water vapour) are prognostic; the rest are
/// diagnostic/background in the proxy.
pub const ALL_VARIABLES: [&str; 8] = ["theta", "u", "v", "w", "prs", "qv", "dbz", "tke"];

/// The first `count` variable names (count clamped to the full set).
pub fn variable_names(count: usize) -> &'static [&'static str] {
    &ALL_VARIABLES[..count.min(ALL_VARIABLES.len())]
}

/// Generates the Damaris XML configuration for a run whose subdomains are
/// `nx × ny × nz`, with `count` variables enabled and the given buffer
/// size (split between the node's clients) — the file `df_initialize`
/// would receive.
pub fn damaris_config_xml(
    nx: usize,
    ny: usize,
    nz: usize,
    count: usize,
    buffer_size: usize,
) -> String {
    damaris_config_xml_full(nx, ny, nz, count, buffer_size, "", "")
}

/// The fully general generator: extra `<event …/>` bindings (e.g. a
/// `scope="global"` action every dedicated core should react to) plus a
/// `<resilience …/>` element (e.g. `on_client_failure="partial"
/// client_lease_timeout_ms=…`) — how a deployment opts its dedicated cores
/// into client-failure containment.
pub fn damaris_config_xml_full(
    nx: usize,
    ny: usize,
    nz: usize,
    count: usize,
    buffer_size: usize,
    events_xml: &str,
    resilience_xml: &str,
) -> String {
    let mut xml = String::new();
    xml.push_str("<damaris>\n");
    xml.push_str(&format!(
        "  <buffer size=\"{buffer_size}\" queue=\"1024\"/>\n"
    ));
    xml.push_str(&format!(
        "  <layout name=\"subdomain\" type=\"real\" dimensions=\"{nx},{ny},{nz}\"/>\n"
    ));
    for name in variable_names(count) {
        let unit = match *name {
            "theta" => "K",
            "u" | "v" | "w" => "m/s",
            "prs" => "Pa",
            "qv" => "kg/kg",
            "dbz" => "dBZ",
            "tke" => "m2/s2",
            _ => "",
        };
        xml.push_str(&format!(
            "  <variable name=\"{name}\" layout=\"subdomain\" unit=\"{unit}\"/>\n"
        ));
    }
    if !events_xml.trim().is_empty() {
        xml.push_str("  ");
        xml.push_str(events_xml.trim());
        xml.push('\n');
    }
    if !resilience_xml.trim().is_empty() {
        xml.push_str("  ");
        xml.push_str(resilience_xml.trim());
        xml.push('\n');
    }
    xml.push_str("</damaris>\n");
    xml
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_subsets() {
        assert_eq!(variable_names(3), &["theta", "u", "v"]);
        assert_eq!(variable_names(100).len(), 8);
        assert!(variable_names(0).is_empty());
    }

    #[test]
    fn resilient_config_parses() {
        let xml = damaris_config_xml_full(
            8,
            8,
            4,
            2,
            1 << 20,
            "",
            r#"<resilience on_client_failure="partial" client_lease_timeout_ms="250"/>"#,
        );
        let config = damaris_core::Config::from_xml(&xml).unwrap();
        assert_eq!(
            config.resilience.on_client_failure,
            damaris_core::OnClientFailure::Partial
        );
        assert_eq!(
            config.resilience.client_lease_timeout,
            std::time::Duration::from_millis(250)
        );
    }

    #[test]
    fn generated_config_parses() {
        let xml = damaris_config_xml(44, 44, 200, 6, 64 << 20);
        let config = damaris_core::Config::from_xml(&xml).unwrap();
        assert_eq!(config.variables.len(), 6);
        assert_eq!(config.buffer_size, 64 << 20);
        let theta = config
            .variable(config.variable_id("theta").unwrap())
            .unwrap();
        assert_eq!(config.layout_of(theta).byte_size(), 44 * 44 * 200 * 4);
        assert_eq!(
            theta
                .attrs
                .iter()
                .find(|(k, _)| k == "unit")
                .map(|(_, v)| v.as_str()),
            Some("K")
        );
    }
}
