//! The JSON-shaped value tree the serde shim converts through.

/// A JSON number, kept in its natural machine representation so `u64` ids
/// and `f32` weights both round-trip exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Unsigned integer.
    U(u64),
    /// Signed integer.
    I(i64),
    /// Floating point.
    F(f64),
}

impl Number {
    /// As `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(n) => Some(n),
            Number::I(n) => u64::try_from(n).ok(),
            Number::F(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            Number::F(_) => None,
        }
    }

    /// As `i64`, if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(n) => i64::try_from(n).ok(),
            Number::I(n) => Some(n),
            Number::F(f)
                if f.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&f) =>
            {
                Some(f as i64)
            }
            Number::F(_) => None,
        }
    }

    /// As `f64` (always representable, possibly with rounding).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(n) => n as f64,
            Number::I(n) => n as f64,
            Number::F(f) => f,
        }
    }
}

/// A JSON document. Objects preserve insertion order (they are association
/// lists, not maps — field counts here are tiny).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered `(key, value)` pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Human-readable kind tag for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// Object field lookup (first match).
    pub fn get_field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Deserialize the object field `key` — what a derived `Deserialize`
    /// does per field, for hand-written impls.
    pub fn field<T: crate::Deserialize>(&self, key: &str) -> Result<T, crate::DeError> {
        match self.get_field(key) {
            Some(v) => T::from_value(v),
            None => Err(crate::DeError::msg(format!("missing field `{key}`"))),
        }
    }

    /// The object's fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}
